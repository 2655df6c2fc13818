// Package latchgood exercises every pattern latchcheck must prove clean:
// constant declared sets, package-level table lists spliced with append,
// helpers that receive the transaction and table names as parameters,
// range-over-struct-literal table tables, and the exempt whole-engine
// forms.
package latchgood

import "fix/latchdb"

const (
	tLFN = "t_lfn"
	tPFN = "t_pfn"
	tMap = "t_map"
)

var extraTables = []string{tPFN, tMap}

// Constant declared set, every access inside it.
func direct(e *latchdb.Engine) error {
	tx, err := e.Begin(tLFN, tPFN)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if _, err := tx.Insert(tLFN, nil); err != nil {
		return err
	}
	if _, err := tx.Delete(tPFN, 1); err != nil {
		return err
	}
	if _, err := tx.Update(tLFN, 1, nil); err != nil {
		return err
	}
	return tx.Commit()
}

// Declared set spliced from a package-level list, accesses threaded through
// helpers that take the table name as a parameter.
func viaHelpers(e *latchdb.Engine) error {
	tables := append([]string{tLFN}, extraTables...)
	tx, err := e.Begin(tables...)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if err := insertInto(tx, tLFN); err != nil {
		return err
	}
	for _, t := range extraTables {
		if err := insertInto(tx, t); err != nil {
			return err
		}
	}
	return tx.Commit()
}

func insertInto(tx *latchdb.Tx, table string) error {
	_, err := tx.Insert(table, nil)
	return err
}

// Table names selected by a helper's switch-return, like the repo's
// attrValueTable.
func viaSwitchHelper(e *latchdb.Engine, kind int) error {
	t, ok := tableFor(kind)
	if !ok {
		return nil
	}
	tx, err := e.Begin(tLFN, tPFN, tMap)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if _, err := tx.Insert(t, nil); err != nil {
		return err
	}
	return tx.Commit()
}

func tableFor(kind int) (string, bool) {
	switch kind {
	case 0:
		return tPFN, true
	case 1:
		return tMap, true
	}
	return "", false
}

// Accesses over a range of struct literals carrying the table per entry.
func lookupSpecs(e *latchdb.Engine) error {
	tx, err := e.Begin(tPFN, tMap)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	for _, spec := range []struct {
		table string
		index string
	}{
		{tPFN, "by_id"},
		{tMap, "by_id"},
	} {
		if _, err := tx.Lookup(spec.table, spec.index); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// The whole-engine form declares every table and is exempt.
func wholeEngine(e *latchdb.Engine) error {
	tx, err := e.Begin()
	if err != nil {
		return err
	}
	if _, err := tx.Insert(tLFN, nil); err != nil {
		return err
	}
	return tx.Commit()
}

// Intentional dynamism, waived with a reason.
func waived(e *latchdb.Engine, table string) error {
	//lint:ignore latchcheck the table name is validated by the caller
	tx, err := e.Begin(table)
	if err != nil {
		return err
	}
	return tx.Commit()
}
