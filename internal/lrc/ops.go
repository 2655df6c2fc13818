package lrc

import (
	"context"
	"errors"

	"repro/internal/rdb"
	"repro/internal/wire"
)

// Catalog operations. Each wraps the corresponding rdb operation and, for
// mutations that change the set of registered logical names, records the
// change for the Bloom filter and the incremental-update buffer.
//
// The rdb layer itself has no context plumbing (its blocking comes from the
// simulated disk, which has no cancellation point), so the ctx.Err() check
// at each entry is the cancellation boundary: a cancelled context stops the
// operation before it touches storage.

// CreateMapping registers a new logical name with its first target.
func (s *Service) CreateMapping(ctx context.Context, logical, target string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.checkOwner(logical); err != nil {
		return err
	}
	if err := s.db.CreateMapping(logical, target); err != nil {
		return err
	}
	s.noteLogicalAdded(ctx, logical)
	return nil
}

// AddMapping adds another target to an existing logical name. The set of
// logical names is unchanged, so no soft-state delta is recorded.
func (s *Service) AddMapping(ctx context.Context, logical, target string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.checkOwner(logical); err != nil {
		return err
	}
	return s.db.AddMapping(logical, target)
}

// DeleteMapping removes one mapping; if the logical name's last mapping is
// gone the name itself is unregistered and the delta recorded.
func (s *Service) DeleteMapping(ctx context.Context, logical, target string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.checkOwner(logical); err != nil {
		return err
	}
	if err := s.db.DeleteMapping(logical, target); err != nil {
		return err
	}
	// The logical name disappears only when no targets remain.
	if _, err := s.db.GetTargets(logical); errors.Is(err, rdb.ErrNotFound) {
		s.noteLogicalRemoved(ctx, logical)
	}
	return nil
}

// BulkOutcome reports per-element failures of a bulk mutation.
type BulkOutcome struct {
	Failures []wire.BulkFailure
}

// statusFor maps rdb errors onto wire statuses.
func statusFor(err error) wire.Status {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, rdb.ErrExists):
		return wire.StatusExists
	case errors.Is(err, rdb.ErrNotFound):
		return wire.StatusNotFound
	case errors.Is(err, rdb.ErrInvalid):
		return wire.StatusBadRequest
	default:
		return wire.StatusInternal
	}
}

// bulk runs fn for every mapping, collecting per-element failures — the
// paper's bulk operations "aggregate multiple requests in a single packet to
// reduce request overhead" and proceed past individual failures.
func bulk(mappings []wire.Mapping, fn func(wire.Mapping) error) BulkOutcome {
	var out BulkOutcome
	for i, m := range mappings {
		if err := fn(m); err != nil {
			out.Failures = append(out.Failures, wire.BulkFailure{
				Index:  uint32(i),
				Status: statusFor(err),
				Msg:    err.Error(),
			})
		}
	}
	return out
}

// BulkCreate creates many mappings.
func (s *Service) BulkCreate(ctx context.Context, mappings []wire.Mapping) BulkOutcome {
	return bulk(mappings, func(m wire.Mapping) error { return s.CreateMapping(ctx, m.Logical, m.Target) })
}

// BulkAdd adds many mappings.
func (s *Service) BulkAdd(ctx context.Context, mappings []wire.Mapping) BulkOutcome {
	return bulk(mappings, func(m wire.Mapping) error { return s.AddMapping(ctx, m.Logical, m.Target) })
}

// BulkDelete deletes many mappings.
func (s *Service) BulkDelete(ctx context.Context, mappings []wire.Mapping) BulkOutcome {
	return bulk(mappings, func(m wire.Mapping) error { return s.DeleteMapping(ctx, m.Logical, m.Target) })
}

// GetTargets returns the targets of a logical name.
func (s *Service) GetTargets(ctx context.Context, logical string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.GetTargets(logical)
}

// GetLogicals returns the logical names of a target.
func (s *Service) GetLogicals(ctx context.Context, target string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.GetLogicals(target)
}

// WildcardTargets finds mappings by logical-name wildcard.
func (s *Service) WildcardTargets(ctx context.Context, pattern string) ([]wire.Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.WildcardTargets(pattern)
}

// WildcardLogicals finds mappings by target-name wildcard.
func (s *Service) WildcardLogicals(ctx context.Context, pattern string) ([]wire.Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.WildcardLogicals(pattern)
}

// BulkGetTargets resolves many logical names.
func (s *Service) BulkGetTargets(ctx context.Context, names []string) []wire.BulkNameResult {
	out := make([]wire.BulkNameResult, 0, len(names))
	for _, n := range names {
		values, err := s.GetTargets(ctx, n)
		out = append(out, wire.BulkNameResult{Name: n, Found: err == nil, Values: values})
	}
	return out
}

// BulkGetLogicals resolves many target names.
func (s *Service) BulkGetLogicals(ctx context.Context, names []string) []wire.BulkNameResult {
	out := make([]wire.BulkNameResult, 0, len(names))
	for _, n := range names {
		values, err := s.GetLogicals(ctx, n)
		out = append(out, wire.BulkNameResult{Name: n, Found: err == nil, Values: values})
	}
	return out
}

// Attribute operations delegate to the database.

// DefineAttribute declares an attribute.
func (s *Service) DefineAttribute(ctx context.Context, name string, obj wire.ObjType, typ wire.AttrType) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.db.DefineAttribute(name, obj, typ)
}

// UndefineAttribute removes an attribute definition.
func (s *Service) UndefineAttribute(ctx context.Context, name string, obj wire.ObjType, clearValues bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.db.UndefineAttribute(name, obj, clearValues)
}

// AddAttribute attaches an attribute value to an object.
func (s *Service) AddAttribute(ctx context.Context, key string, obj wire.ObjType, name string, v wire.AttrValue) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.db.AddAttribute(key, obj, name, v)
}

// ModifyAttribute replaces an attribute value on an object.
func (s *Service) ModifyAttribute(ctx context.Context, key string, obj wire.ObjType, name string, v wire.AttrValue) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.db.ModifyAttribute(key, obj, name, v)
}

// RemoveAttribute detaches an attribute value from an object.
func (s *Service) RemoveAttribute(ctx context.Context, key string, obj wire.ObjType, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.db.RemoveAttribute(key, obj, name)
}

// GetAttributes lists attribute values on an object.
func (s *Service) GetAttributes(ctx context.Context, key string, obj wire.ObjType, names []string) ([]wire.NamedAttr, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.GetAttributes(key, obj, names)
}

// SearchAttribute finds objects by attribute comparison.
func (s *Service) SearchAttribute(ctx context.Context, name string, obj wire.ObjType, cmp wire.CmpOp, probe wire.AttrValue) ([]wire.ObjAttr, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.SearchAttribute(name, obj, cmp, probe)
}

// ListAttributeDefs lists attribute definitions.
func (s *Service) ListAttributeDefs(ctx context.Context, obj wire.ObjType) ([]wire.AttrDef, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.ListAttributeDefs(obj)
}

// BulkAddAttributes attaches many attribute values.
func (s *Service) BulkAddAttributes(ctx context.Context, items []wire.AttrWriteRequest) BulkOutcome {
	var out BulkOutcome
	for i, it := range items {
		if err := s.AddAttribute(ctx, it.Key, it.Obj, it.Name, it.Value); err != nil {
			out.Failures = append(out.Failures, wire.BulkFailure{Index: uint32(i), Status: statusFor(err), Msg: err.Error()})
		}
	}
	return out
}

// BulkRemoveAttributes detaches many attribute values.
func (s *Service) BulkRemoveAttributes(ctx context.Context, items []wire.AttrRemoveRequest) BulkOutcome {
	var out BulkOutcome
	for i, it := range items {
		if err := s.RemoveAttribute(ctx, it.Key, it.Obj, it.Name); err != nil {
			out.Failures = append(out.Failures, wire.BulkFailure{Index: uint32(i), Status: statusFor(err), Msg: err.Error()})
		}
	}
	return out
}

// RLI target management.

// AddRLITarget starts updating an RLI (persisted in t_rli/t_rlipartition).
func (s *Service) AddRLITarget(ctx context.Context, spec wire.RLITarget) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tg, err := compileTarget(spec)
	if err != nil {
		return errors.Join(rdb.ErrInvalid, err)
	}
	if err := s.db.AddRLITarget(spec); err != nil {
		return err
	}
	// The database rejected a duplicate url above, so this never replaces a
	// target (and its link).
	s.mu.Lock()
	s.targets[spec.URL] = tg
	s.mu.Unlock()
	return nil
}

// RemoveRLITarget stops updating an RLI.
func (s *Service) RemoveRLITarget(ctx context.Context, url string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.db.RemoveRLITarget(url); err != nil {
		return err
	}
	s.mu.Lock()
	old := s.targets[url]
	delete(s.targets, url)
	s.mu.Unlock()
	if old != nil {
		old.closeUpdater()
	}
	return nil
}

// ListRLITargets returns the RLIs this LRC updates.
func (s *Service) ListRLITargets(ctx context.Context) ([]wire.RLITarget, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.ListRLITargets()
}
