package rdb

import (
	"fmt"
	"time"

	"repro/internal/storage"
	"repro/internal/wire"
)

// attrValueTable maps an attribute type to its typed value table.
func attrValueTable(t wire.AttrType) (string, error) {
	switch t {
	case wire.AttrString:
		return tStrAttr, nil
	case wire.AttrInt:
		return tIntAttr, nil
	case wire.AttrFloat:
		return tFltAttr, nil
	case wire.AttrDate:
		return tDateAttr, nil
	default:
		return "", fmt.Errorf("%w: attribute type %d", ErrInvalid, t)
	}
}

// objNameTable maps an object type to the name table its keys live in.
func objNameTable(o wire.ObjType) (string, error) {
	switch o {
	case wire.ObjLogical:
		return tLFN, nil
	case wire.ObjTarget:
		return tPFN, nil
	default:
		return "", fmt.Errorf("%w: object type %d", ErrInvalid, o)
	}
}

// toStorageValue converts a wire attribute value into the storage value for
// its typed table.
func toStorageValue(v wire.AttrValue) (storage.Value, error) {
	switch v.Type {
	case wire.AttrString:
		return storage.String(v.S), nil
	case wire.AttrInt:
		return storage.Int64(v.I), nil
	case wire.AttrFloat:
		return storage.Float64(v.F), nil
	case wire.AttrDate:
		return storage.Timestamp(time.Unix(0, v.I)), nil
	default:
		return storage.Null(), fmt.Errorf("%w: attribute type %d", ErrInvalid, v.Type)
	}
}

// fromStorageValue converts a typed-table value back to the wire form.
func fromStorageValue(t wire.AttrType, v storage.Value) wire.AttrValue {
	switch t {
	case wire.AttrString:
		return wire.AttrValue{Type: t, S: v.Str}
	case wire.AttrInt:
		return wire.AttrValue{Type: t, I: v.Int}
	case wire.AttrFloat:
		return wire.AttrValue{Type: t, F: v.Float()}
	default: // AttrDate
		return wire.AttrValue{Type: t, I: v.Int}
	}
}

// DefineAttribute declares a new attribute for an object type.
func (db *LRCDB) DefineAttribute(name string, obj wire.ObjType, typ wire.AttrType) error {
	if name == "" {
		return fmt.Errorf("%w: empty attribute name", ErrInvalid)
	}
	if !obj.Valid() {
		return fmt.Errorf("%w: object type %d", ErrInvalid, obj)
	}
	if !typ.Valid() {
		return fmt.Errorf("%w: attribute type %d", ErrInvalid, typ)
	}
	tx, err := db.eng.Begin(tAttribute)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if rows, err := tx.Lookup(tAttribute, "by_name_obj", storage.String(name), storage.Int64(int64(obj))); err != nil {
		return err
	} else if len(rows) > 0 {
		return fmt.Errorf("%w: attribute %q for %s objects", ErrExists, name, obj)
	}
	id := db.nextAttr.Add(1)
	row := storage.Row{storage.Int64(id), storage.String(name), storage.Int64(int64(obj)), storage.Int64(int64(typ))}
	if _, err := tx.Insert(tAttribute, row); err != nil {
		return err
	}
	return tx.Commit()
}

// lookupAttrDef finds an attribute definition, returning its id and type.
func lookupAttrDef(lk interface {
	Lookup(string, string, ...storage.Value) ([]storage.Row, error)
}, name string, obj wire.ObjType) (int64, wire.AttrType, error) {
	rows, err := lk.Lookup(tAttribute, "by_name_obj", storage.String(name), storage.Int64(int64(obj)))
	if err != nil {
		return 0, 0, err
	}
	if len(rows) == 0 {
		return 0, 0, fmt.Errorf("%w: attribute %q for %s objects", ErrNotFound, name, obj)
	}
	return rows[0][colAttrID].Int, wire.AttrType(rows[0][colAttrValType].Int), nil
}

// UndefineAttribute removes an attribute definition. With clearValues, all
// stored values of the attribute are removed too; otherwise the operation
// fails with ErrExists while values remain.
func (db *LRCDB) UndefineAttribute(name string, obj wire.ObjType, clearValues bool) error {
	// The typed value table is only known once the definition is read inside
	// the transaction, so declare all of them up front.
	tx, err := db.eng.Begin(append([]string{tAttribute}, attrValueTables...)...)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	attrID, typ, err := lookupAttrDef(tx, name, obj)
	if err != nil {
		return err
	}
	vt, err := attrValueTable(typ)
	if err != nil {
		return err
	}
	var valueRows []int64
	if err := tx.ScanPrefix(vt, "by_attr", []storage.Value{storage.Int64(attrID)}, func(rowid int64, _ storage.Row) bool {
		valueRows = append(valueRows, rowid)
		return true
	}); err != nil {
		return err
	}
	if len(valueRows) > 0 && !clearValues {
		return fmt.Errorf("%w: attribute %q still has %d values", ErrExists, name, len(valueRows))
	}
	for _, rowid := range valueRows {
		if _, err := tx.Delete(vt, rowid); err != nil {
			return err
		}
	}
	defIDs, _, err := tx.LookupIDs(tAttribute, "by_name_obj", storage.String(name), storage.Int64(int64(obj)))
	if err != nil {
		return err
	}
	for _, rowid := range defIDs {
		if _, err := tx.Delete(tAttribute, rowid); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// resolveObjectID finds the id of the named object in the proper name table.
func resolveObjectID(tx *storage.Tx, obj wire.ObjType, key string) (int64, error) {
	table, err := objNameTable(obj)
	if err != nil {
		return 0, err
	}
	rows, err := tx.Lookup(table, "by_name", storage.String(key))
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("%w: %s name %q", ErrNotFound, obj, key)
	}
	return rows[0][colNameID].Int, nil
}

// AddAttribute attaches an attribute value to an object. The attribute must
// be defined, the declared type must match the supplied value, and the
// object must not already carry the attribute.
func (db *LRCDB) AddAttribute(key string, obj wire.ObjType, name string, value wire.AttrValue) error {
	return db.writeAttribute(key, obj, name, value, false)
}

// ModifyAttribute replaces the stored value of an attribute on an object.
func (db *LRCDB) ModifyAttribute(key string, obj wire.ObjType, name string, value wire.AttrValue) error {
	return db.writeAttribute(key, obj, name, value, true)
}

func (db *LRCDB) writeAttribute(key string, obj wire.ObjType, name string, value wire.AttrValue, replace bool) error {
	objTable, err := objNameTable(obj)
	if err != nil {
		return err
	}
	// The value's own type picks the one typed table the transaction can
	// touch; the definition check below rejects the write before the table
	// is used if the declared attribute type differs.
	vt, err := attrValueTable(value.Type)
	if err != nil {
		return err
	}
	tx, err := db.eng.Begin(tAttribute, objTable, vt)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	attrID, typ, err := lookupAttrDef(tx, name, obj)
	if err != nil {
		return err
	}
	if typ != value.Type {
		return fmt.Errorf("%w: attribute %q is %s, value is %s", ErrInvalid, name, typ, value.Type)
	}
	objID, err := resolveObjectID(tx, obj, key)
	if err != nil {
		return err
	}
	existing, _, err := tx.LookupIDs(vt, "by_obj_attr", storage.Int64(objID), storage.Int64(attrID))
	if err != nil {
		return err
	}
	if len(existing) > 0 && !replace {
		return fmt.Errorf("%w: attribute %q on %q", ErrExists, name, key)
	}
	if len(existing) == 0 && replace {
		return fmt.Errorf("%w: attribute %q on %q", ErrNotFound, name, key)
	}
	sv, err := toStorageValue(value)
	if err != nil {
		return err
	}
	row := storage.Row{storage.Int64(objID), storage.Int64(attrID), sv}
	if replace {
		_, err = tx.Update(vt, existing[0], row)
	} else {
		_, err = tx.Insert(vt, row)
	}
	if err != nil {
		return err
	}
	return tx.Commit()
}

// RemoveAttribute detaches an attribute value from an object.
func (db *LRCDB) RemoveAttribute(key string, obj wire.ObjType, name string) error {
	objTable, err := objNameTable(obj)
	if err != nil {
		return err
	}
	// The typed value table is only known once the definition is read inside
	// the transaction, so declare all of them up front.
	tx, err := db.eng.Begin(append([]string{tAttribute, objTable}, attrValueTables...)...)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	attrID, typ, err := lookupAttrDef(tx, name, obj)
	if err != nil {
		return err
	}
	objID, err := resolveObjectID(tx, obj, key)
	if err != nil {
		return err
	}
	vt, err := attrValueTable(typ)
	if err != nil {
		return err
	}
	rowids, _, err := tx.LookupIDs(vt, "by_obj_attr", storage.Int64(objID), storage.Int64(attrID))
	if err != nil {
		return err
	}
	if len(rowids) == 0 {
		return fmt.Errorf("%w: attribute %q on %q", ErrNotFound, name, key)
	}
	for _, rowid := range rowids {
		if _, err := tx.Delete(vt, rowid); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// GetAttributes returns the attribute values attached to an object,
// restricted to names when non-empty.
func (db *LRCDB) GetAttributes(key string, obj wire.ObjType, names []string) ([]wire.NamedAttr, error) {
	table, err := objNameTable(obj)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []wire.NamedAttr
	err = db.eng.SnapshotView(func(r *storage.Reader) error {
		rows, err := r.Lookup(table, "by_name", storage.String(key))
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return fmt.Errorf("%w: %s name %q", ErrNotFound, obj, key)
		}
		objID := rows[0][colNameID].Int
		// Walk every typed value table; resolve each hit's definition to
		// recover name and confirm object type.
		for _, spec := range []struct {
			table string
			typ   wire.AttrType
		}{{tStrAttr, wire.AttrString}, {tIntAttr, wire.AttrInt}, {tFltAttr, wire.AttrFloat}, {tDateAttr, wire.AttrDate}} {
			var scanErr error
			err := r.ScanPrefix(spec.table, "by_obj_attr", []storage.Value{storage.Int64(objID)}, func(_ int64, vrow storage.Row) bool {
				defs, err := r.Lookup(tAttribute, "by_id", vrow[colValAttr])
				if err != nil {
					scanErr = err
					return false
				}
				if len(defs) == 0 || wire.ObjType(defs[0][colAttrObjType].Int) != obj {
					return true
				}
				aname := defs[0][colAttrName].Str
				if len(want) > 0 && !want[aname] {
					return true
				}
				out = append(out, wire.NamedAttr{Name: aname, Value: fromStorageValue(spec.typ, vrow[colValValue])})
				return true
			})
			if err != nil {
				return err
			}
			if scanErr != nil {
				return scanErr
			}
		}
		return nil
	})
	return out, err
}

// ListAttributeDefs returns the attribute definitions for an object type
// (or both when obj is 0), sorted by name.
func (db *LRCDB) ListAttributeDefs(obj wire.ObjType) ([]wire.AttrDef, error) {
	if obj != 0 && !obj.Valid() {
		return nil, fmt.Errorf("%w: object type %d", ErrInvalid, obj)
	}
	var out []wire.AttrDef
	err := db.eng.SnapshotView(func(r *storage.Reader) error {
		return r.ScanStringPrefix(tAttribute, "by_name_obj", "", func(_ int64, row storage.Row) bool {
			defObj := wire.ObjType(row[colAttrObjType].Int)
			if obj != 0 && defObj != obj {
				return true
			}
			out = append(out, wire.AttrDef{
				Name: row[colAttrName].Str,
				Obj:  defObj,
				Type: wire.AttrType(row[colAttrValType].Int),
			})
			return true
		})
	})
	return out, err
}

// compareAttr evaluates a comparison between a stored value and the probe.
func compareAttr(typ wire.AttrType, stored storage.Value, cmp wire.CmpOp, probe wire.AttrValue) bool {
	if cmp == wire.CmpAny {
		return true
	}
	var c int
	switch typ {
	case wire.AttrString:
		switch {
		case stored.Str < probe.S:
			c = -1
		case stored.Str > probe.S:
			c = 1
		}
	case wire.AttrInt:
		switch {
		case stored.Int < probe.I:
			c = -1
		case stored.Int > probe.I:
			c = 1
		}
	case wire.AttrFloat:
		switch {
		case stored.Float() < probe.F:
			c = -1
		case stored.Float() > probe.F:
			c = 1
		}
	case wire.AttrDate:
		pn := probe.I
		switch {
		case stored.Int < pn:
			c = -1
		case stored.Int > pn:
			c = 1
		}
	}
	switch cmp {
	case wire.CmpEQ:
		return c == 0
	case wire.CmpNE:
		return c != 0
	case wire.CmpLT:
		return c < 0
	case wire.CmpLE:
		return c <= 0
	case wire.CmpGT:
		return c > 0
	case wire.CmpGE:
		return c >= 0
	default:
		return false
	}
}

// SearchAttribute finds objects whose named attribute satisfies the
// comparison, returning object keys with the matching values.
func (db *LRCDB) SearchAttribute(name string, obj wire.ObjType, cmp wire.CmpOp, probe wire.AttrValue) ([]wire.ObjAttr, error) {
	if !cmp.Valid() {
		return nil, fmt.Errorf("%w: comparison operator %d", ErrInvalid, cmp)
	}
	table, err := objNameTable(obj)
	if err != nil {
		return nil, err
	}
	var out []wire.ObjAttr
	err = db.eng.SnapshotView(func(r *storage.Reader) error {
		rows, err := r.Lookup(tAttribute, "by_name_obj", storage.String(name), storage.Int64(int64(obj)))
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return fmt.Errorf("%w: attribute %q for %s objects", ErrNotFound, name, obj)
		}
		attrID := rows[0][colAttrID].Int
		typ := wire.AttrType(rows[0][colAttrValType].Int)
		if cmp != wire.CmpAny && typ != probe.Type {
			return fmt.Errorf("%w: attribute %q is %s, probe is %s", ErrInvalid, name, typ, probe.Type)
		}
		vt, err := attrValueTable(typ)
		if err != nil {
			return err
		}
		var scanErr error
		if err := r.ScanPrefix(vt, "by_attr", []storage.Value{storage.Int64(attrID)}, func(_ int64, vrow storage.Row) bool {
			if !compareAttr(typ, vrow[colValValue], cmp, probe) {
				return true
			}
			objs, err := r.Lookup(table, "by_id", vrow[colValObj])
			if err != nil {
				scanErr = err
				return false
			}
			if len(objs) > 0 {
				out = append(out, wire.ObjAttr{Key: objs[0][colNameName].Str, Value: fromStorageValue(typ, vrow[colValValue])})
			}
			return true
		}); err != nil {
			return err
		}
		return scanErr
	})
	return out, err
}
