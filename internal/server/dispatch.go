package server

import (
	"context"
	"fmt"

	"repro/internal/auth"
	"repro/internal/lrc"
	"repro/internal/rli"
	"repro/internal/wire"
)

// role names the service an operation runs against. A server configured
// without that service answers the operation with StatusUnsupported.
type role uint8

const (
	roleAny    role = iota // diagnostics, served by every configuration
	roleLRC                // needs Config.LRC
	roleRLI                // needs Config.RLI
	roleMember             // needs Config.Members (seed registry)
)

// handler decodes one request body, runs the operation and returns the
// encoded response body. A body its decoder rejects comes back as a bare
// decodeError; every other error is the operation's own and goes to fail().
type handler func(ctx context.Context, s *Server, body []byte) ([]byte, error)

// opDesc is one row of the op table: everything the server knows about an
// operation besides its name and number (wire/ops.go).
type opDesc struct {
	priv   auth.Privilege // "" = no privilege required
	role   role
	handle handler
}

// decodeError marks a request body the operation's decoder rejected. It is
// the client's fault whatever the decoder said (truncated, trailing bytes, a
// body on a bodyless op), so dispatch answers StatusBadRequest — which,
// unlike StatusInternal, a failover client does not retry on other replicas.
type decodeError struct{ error }

// dispatch authorizes and executes one request. The order is part of the
// contract: authorization is decided before the role check (an unprivileged
// caller learns nothing about what the server is configured to serve) and
// before any byte of the body is decoded.
func (s *Server) dispatch(ctx context.Context, id auth.Identity, req *wire.Request) *wire.Response {
	op := req.Op
	if !op.Valid() {
		return &wire.Response{ID: req.ID, Status: wire.StatusBadRequest, Err: "unknown operation"}
	}
	row := &ops[op]
	if row.priv != "" && !s.authn.Authorize(id, row.priv) {
		return deny(req.ID, op)
	}
	if row.handle == nil || !s.serves(row.role) {
		return unsupported(req.ID, op, s.Role())
	}
	body, err := row.handle(ctx, s, req.Body)
	if _, bad := err.(decodeError); bad {
		return &wire.Response{ID: req.ID, Status: wire.StatusBadRequest, Err: err.Error()}
	}
	if err != nil {
		return fail(req.ID, err)
	}
	return ok(req.ID, body)
}

// serves reports whether the server was configured with the role's service.
func (s *Server) serves(r role) bool {
	switch r {
	case roleLRC:
		return s.cfg.LRC != nil
	case roleRLI:
		return s.cfg.RLI != nil
	case roleMember:
		return s.cfg.Members != nil
	}
	return true
}

// ops is the op table: one row per opcode, indexed by it. To add an
// operation: the constant and its name in wire/ops.go, a codec in
// wire/messages.go if the request shape is new, one row here, one client
// method. TestOpTablePinned fails until the row exists and is pinned.
var ops = [wire.NumOps]opDesc{
	// Diagnostics.
	wire.OpPing:       diagOp(func(*Server, context.Context) ([]byte, error) { return nil, nil }),
	wire.OpServerInfo: diagOp((*Server).serverInfo),
	wire.OpStats: diagOp(func(s *Server, _ context.Context) ([]byte, error) {
		return s.StatsSnapshot().Encode(), nil
	}),

	// LRC mapping management.
	wire.OpLRCCreateMapping: mapping(auth.PrivLRCWrite, (*lrc.Service).CreateMapping),
	wire.OpLRCAddMapping:    mapping(auth.PrivLRCWrite, (*lrc.Service).AddMapping),
	wire.OpLRCDeleteMapping: mapping(auth.PrivLRCWrite, (*lrc.Service).DeleteMapping),
	wire.OpLRCBulkCreate:    bulkMapping(auth.PrivLRCWrite, (*lrc.Service).BulkCreate),
	wire.OpLRCBulkAdd:       bulkMapping(auth.PrivLRCWrite, (*lrc.Service).BulkAdd),
	wire.OpLRCBulkDelete:    bulkMapping(auth.PrivLRCWrite, (*lrc.Service).BulkDelete),

	// LRC queries.
	wire.OpLRCGetTargets:  nameQuery(auth.PrivLRCRead, (*lrc.Service).GetTargets),
	wire.OpLRCGetLogicals: nameQuery(auth.PrivLRCRead, (*lrc.Service).GetLogicals),
	wire.OpLRCGetTargetsWild: lrcOp(auth.PrivLRCRead, wire.DecodeNameRequest, func(ctx context.Context, l *lrc.Service, q *wire.NameRequest) ([]byte, error) {
		return wildBody(l.WildcardTargets(ctx, q.Name))
	}),
	wire.OpLRCGetLogicalsWild: lrcOp(auth.PrivLRCRead, wire.DecodeNameRequest, func(ctx context.Context, l *lrc.Service, q *wire.NameRequest) ([]byte, error) {
		return wildBody(l.WildcardLogicals(ctx, q.Name))
	}),
	wire.OpLRCBulkGetTargets: lrcOp(auth.PrivLRCRead, wire.DecodeBulkNamesRequest, func(ctx context.Context, l *lrc.Service, q *wire.BulkNamesRequest) ([]byte, error) {
		return bulkNamesBody(l.BulkGetTargets(ctx, q.Names))
	}),
	wire.OpLRCBulkGetLogicals: lrcOp(auth.PrivLRCRead, wire.DecodeBulkNamesRequest, func(ctx context.Context, l *lrc.Service, q *wire.BulkNamesRequest) ([]byte, error) {
		return bulkNamesBody(l.BulkGetLogicals(ctx, q.Names))
	}),

	// LRC attributes.
	wire.OpAttrDefine: lrcOp(auth.PrivLRCWrite, wire.DecodeAttrDefineRequest, func(ctx context.Context, l *lrc.Service, r *wire.AttrDefineRequest) ([]byte, error) {
		return nil, l.DefineAttribute(ctx, r.Name, r.Obj, r.Type)
	}),
	wire.OpAttrUndefine: lrcOp(auth.PrivLRCWrite, wire.DecodeAttrUndefineRequest, func(ctx context.Context, l *lrc.Service, r *wire.AttrUndefineRequest) ([]byte, error) {
		return nil, l.UndefineAttribute(ctx, r.Name, r.Obj, r.ClearValues)
	}),
	wire.OpAttrAdd:    attrWrite(auth.PrivLRCWrite, (*lrc.Service).AddAttribute),
	wire.OpAttrModify: attrWrite(auth.PrivLRCWrite, (*lrc.Service).ModifyAttribute),
	wire.OpAttrRemove: lrcOp(auth.PrivLRCWrite, wire.DecodeAttrRemoveRequest, func(ctx context.Context, l *lrc.Service, r *wire.AttrRemoveRequest) ([]byte, error) {
		return nil, l.RemoveAttribute(ctx, r.Key, r.Obj, r.Name)
	}),
	wire.OpAttrGet: lrcOp(auth.PrivLRCRead, wire.DecodeAttrGetRequest, func(ctx context.Context, l *lrc.Service, r *wire.AttrGetRequest) ([]byte, error) {
		attrs, err := l.GetAttributes(ctx, r.Key, r.Obj, r.Names)
		if err != nil {
			return nil, err
		}
		return (&wire.AttrGetResponse{Attrs: attrs}).Encode(), nil
	}),
	wire.OpAttrSearch: lrcOp(auth.PrivLRCRead, wire.DecodeAttrSearchRequest, func(ctx context.Context, l *lrc.Service, r *wire.AttrSearchRequest) ([]byte, error) {
		hits, err := l.SearchAttribute(ctx, r.Name, r.Obj, r.Cmp, r.Value)
		if err != nil {
			return nil, err
		}
		return (&wire.AttrSearchResponse{Hits: hits}).Encode(), nil
	}),
	wire.OpAttrBulkAdd: lrcOp(auth.PrivLRCWrite, wire.DecodeAttrBulkWriteRequest, func(ctx context.Context, l *lrc.Service, r *wire.AttrBulkWriteRequest) ([]byte, error) {
		return bulkStatus(l.BulkAddAttributes(ctx, r.Items))
	}),
	wire.OpAttrBulkRemove: lrcOp(auth.PrivLRCWrite, wire.DecodeAttrBulkRemoveRequest, func(ctx context.Context, l *lrc.Service, r *wire.AttrBulkRemoveRequest) ([]byte, error) {
		return bulkStatus(l.BulkRemoveAttributes(ctx, r.Items))
	}),
	wire.OpAttrListDefs: lrcOp(auth.PrivLRCRead, wire.DecodeAttrListDefsRequest, func(ctx context.Context, l *lrc.Service, r *wire.AttrListDefsRequest) ([]byte, error) {
		defs, err := l.ListAttributeDefs(ctx, r.Obj)
		if err != nil {
			return nil, err
		}
		return (&wire.AttrListDefsResponse{Defs: defs}).Encode(), nil
	}),

	// LRC management: the RLIs this catalog updates.
	wire.OpLRCRLIList: lrcOp(auth.PrivLRCRead, noBody, func(ctx context.Context, l *lrc.Service, _ *struct{}) ([]byte, error) {
		targets, err := l.ListRLITargets(ctx)
		if err != nil {
			return nil, err
		}
		return (&wire.RLIListResponse{Targets: targets}).Encode(), nil
	}),
	wire.OpLRCRLIAdd: lrcOp(auth.PrivAdmin, wire.DecodeRLIAddRequest, func(ctx context.Context, l *lrc.Service, r *wire.RLIAddRequest) ([]byte, error) {
		return nil, l.AddRLITarget(ctx, r.Target)
	}),
	wire.OpLRCRLIRemove: lrcOp(auth.PrivAdmin, wire.DecodeNameRequest, func(ctx context.Context, l *lrc.Service, r *wire.NameRequest) ([]byte, error) {
		return nil, l.RemoveRLITarget(ctx, r.Name)
	}),

	// RLI queries and management. rli_get_lrcs flags the answer stale when
	// a contributing LRC's soft state has outlived the timeout without a
	// refresh: the query is still served (the expire thread has simply not
	// swept yet) but the client learns it may describe a departed LRC.
	wire.OpRLIGetLRCs: rliOp(auth.PrivRLIRead, wire.DecodeNameRequest, func(ctx context.Context, r *rli.Service, q *wire.NameRequest) ([]byte, error) {
		return namesBody(r.QueryLRCsDetailed(ctx, q.Name))
	}),
	wire.OpRLIGetLRCsWild: rliOp(auth.PrivRLIRead, wire.DecodeNameRequest, func(ctx context.Context, r *rli.Service, q *wire.NameRequest) ([]byte, error) {
		return wildBody(r.WildcardQuery(ctx, q.Name))
	}),
	wire.OpRLIBulkGetLRCs: rliOp(auth.PrivRLIRead, wire.DecodeBulkNamesRequest, func(ctx context.Context, r *rli.Service, q *wire.BulkNamesRequest) ([]byte, error) {
		return bulkNamesBody(r.BulkQuery(ctx, q.Names))
	}),
	wire.OpRLILRCList: rliOp(auth.PrivRLIRead, noBody, func(ctx context.Context, r *rli.Service, _ *struct{}) ([]byte, error) {
		lrcs, err := r.LRCs(ctx)
		return namesBody(lrcs, false, err)
	}),
	// Warm-standby bootstrap: a fresh replica imports a peer's Bloom store.
	wire.OpRLISnapshot: rliOp(auth.PrivRLIRead, noBody, func(ctx context.Context, r *rli.Service, _ *struct{}) ([]byte, error) {
		entries, err := r.ExportSnapshot(ctx)
		if err != nil {
			return nil, err
		}
		return (&wire.RLISnapshotResponse{Entries: entries}).Encode(), nil
	}),

	// Soft state updates (LRC server -> RLI server).
	wire.OpSSFullStart: rliOp(auth.PrivRLIWrite, wire.DecodeSSFullStartRequest, func(ctx context.Context, r *rli.Service, q *wire.SSFullStartRequest) ([]byte, error) {
		return nil, r.HandleFullStart(ctx, q.LRC, q.Total)
	}),
	wire.OpSSFullBatch: rliOp(auth.PrivRLIWrite, wire.DecodeSSFullBatchRequest, func(ctx context.Context, r *rli.Service, q *wire.SSFullBatchRequest) ([]byte, error) {
		return nil, r.HandleFullBatch(ctx, q.LRC, q.Names)
	}),
	wire.OpSSFullEnd: rliOp(auth.PrivRLIWrite, wire.DecodeNameRequest, func(ctx context.Context, r *rli.Service, q *wire.NameRequest) ([]byte, error) {
		return nil, r.HandleFullEnd(ctx, q.Name)
	}),
	wire.OpSSFullAbort: rliOp(auth.PrivRLIWrite, wire.DecodeNameRequest, func(ctx context.Context, r *rli.Service, q *wire.NameRequest) ([]byte, error) {
		return nil, r.HandleFullAbort(ctx, q.Name)
	}),
	wire.OpSSIncremental: rliOp(auth.PrivRLIWrite, wire.DecodeSSIncrementalRequest, func(ctx context.Context, r *rli.Service, q *wire.SSIncrementalRequest) ([]byte, error) {
		return nil, r.HandleIncremental(ctx, q.LRC, q.Added, q.Removed)
	}),
	wire.OpSSBloom: rliOp(auth.PrivRLIWrite, wire.DecodeSSBloomRequest, func(ctx context.Context, r *rli.Service, q *wire.SSBloomRequest) ([]byte, error) {
		return nil, r.HandleBloom(ctx, q.LRC, q.Bitmap)
	}),

	// Runtime membership (seed registry). Views are open: any agent doing
	// anti-entropy may pull the current view without a write privilege.
	wire.OpMemberJoin: memberOp(auth.PrivAdmin, wire.DecodeMemberJoinRequest, func(ctx context.Context, m Membership, r *wire.MemberJoinRequest) ([]byte, error) {
		return nil, m.HandleJoin(ctx, r.Member)
	}),
	wire.OpMemberLeave: memberOp(auth.PrivAdmin, wire.DecodeNameRequest, func(ctx context.Context, m Membership, r *wire.NameRequest) ([]byte, error) {
		return nil, m.HandleLeave(ctx, r.Name)
	}),
	wire.OpMemberHeartbeat: memberOp(auth.PrivAdmin, wire.DecodeNameRequest, func(ctx context.Context, m Membership, r *wire.NameRequest) ([]byte, error) {
		return nil, m.HandleHeartbeat(ctx, r.Name)
	}),
	wire.OpMemberView: memberOp("", wire.DecodeMemberViewRequest, func(ctx context.Context, m Membership, r *wire.MemberViewRequest) ([]byte, error) {
		view, err := m.HandleView(ctx, r.SinceGeneration)
		if err != nil {
			return nil, err
		}
		return view.Encode(), nil
	}),
}

// newOp builds a row whose handler decodes the body with dec and runs the
// operation against the service svc selects. The typed wrappers below tie
// each role to its service, so a row cannot name one and call the other.
func newOp[S, Q any](priv auth.Privilege, r role, svc func(*Server) S, dec func([]byte) (*Q, error), run func(context.Context, S, *Q) ([]byte, error)) opDesc {
	return opDesc{priv, r, func(ctx context.Context, s *Server, body []byte) ([]byte, error) {
		q, err := dec(body)
		if err != nil {
			return nil, decodeError{err}
		}
		return run(ctx, svc(s), q)
	}}
}

func lrcOp[Q any](priv auth.Privilege, dec func([]byte) (*Q, error), run func(context.Context, *lrc.Service, *Q) ([]byte, error)) opDesc {
	return newOp(priv, roleLRC, func(s *Server) *lrc.Service { return s.cfg.LRC }, dec, run)
}

func rliOp[Q any](priv auth.Privilege, dec func([]byte) (*Q, error), run func(context.Context, *rli.Service, *Q) ([]byte, error)) opDesc {
	return newOp(priv, roleRLI, func(s *Server) *rli.Service { return s.cfg.RLI }, dec, run)
}

func memberOp[Q any](priv auth.Privilege, dec func([]byte) (*Q, error), run func(context.Context, Membership, *Q) ([]byte, error)) opDesc {
	return newOp(priv, roleMember, func(s *Server) Membership { return s.cfg.Members }, dec, run)
}

// diagOp builds the row of a diagnostic: open to every caller, served by
// every configuration, no request body.
func diagOp(run func(*Server, context.Context) ([]byte, error)) opDesc {
	return newOp("", roleAny, func(s *Server) *Server { return s }, noBody, func(ctx context.Context, s *Server, _ *struct{}) ([]byte, error) {
		return run(s, ctx)
	})
}

// noBody is the request decoder of the operations that carry no payload.
func noBody(body []byte) (*struct{}, error) {
	if len(body) != 0 {
		return nil, fmt.Errorf("unexpected %d-byte body on a bodyless op", len(body))
	}
	return nil, nil
}

// mapping, bulkMapping, nameQuery and attrWrite are the request shapes that
// several LRC operations share; fn is a method expression.
func mapping(priv auth.Privilege, fn func(*lrc.Service, context.Context, string, string) error) opDesc {
	return lrcOp(priv, wire.DecodeMappingRequest, func(ctx context.Context, l *lrc.Service, m *wire.MappingRequest) ([]byte, error) {
		return nil, fn(l, ctx, m.Logical, m.Target)
	})
}

func bulkMapping(priv auth.Privilege, fn func(*lrc.Service, context.Context, []wire.Mapping) lrc.BulkOutcome) opDesc {
	return lrcOp(priv, wire.DecodeBulkMappingsRequest, func(ctx context.Context, l *lrc.Service, m *wire.BulkMappingsRequest) ([]byte, error) {
		return bulkStatus(fn(l, ctx, m.Mappings))
	})
}

func nameQuery(priv auth.Privilege, fn func(*lrc.Service, context.Context, string) ([]string, error)) opDesc {
	return lrcOp(priv, wire.DecodeNameRequest, func(ctx context.Context, l *lrc.Service, q *wire.NameRequest) ([]byte, error) {
		names, err := fn(l, ctx, q.Name)
		return namesBody(names, false, err)
	})
}

func attrWrite(priv auth.Privilege, fn func(*lrc.Service, context.Context, string, wire.ObjType, string, wire.AttrValue) error) opDesc {
	return lrcOp(priv, wire.DecodeAttrWriteRequest, func(ctx context.Context, l *lrc.Service, r *wire.AttrWriteRequest) ([]byte, error) {
		return nil, fn(l, ctx, r.Key, r.Obj, r.Name, r.Value)
	})
}

// namesBody, bulkNamesBody, bulkStatus and wildBody are the response shapes
// that several operations share.
func namesBody(names []string, stale bool, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return (&wire.NamesResponse{Names: names, Stale: stale}).Encode(), nil
}

func bulkNamesBody(results []wire.BulkNameResult) ([]byte, error) {
	return (&wire.BulkNamesResponse{Results: results}).Encode(), nil
}

func bulkStatus(outcome lrc.BulkOutcome) ([]byte, error) {
	return (&wire.BulkStatusResponse{Failures: outcome.Failures}).Encode(), nil
}

// wildBody encodes wildcard hits in the bulk result shape: one entry per
// logical name with its values, in first-seen order.
func wildBody(hits []wire.Mapping, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	grouped := make(map[string][]string)
	var order []string
	for _, h := range hits {
		if _, seen := grouped[h.Logical]; !seen {
			order = append(order, h.Logical)
		}
		grouped[h.Logical] = append(grouped[h.Logical], h.Target)
	}
	var results []wire.BulkNameResult
	for _, name := range order {
		results = append(results, wire.BulkNameResult{Name: name, Found: true, Values: grouped[name]})
	}
	return bulkNamesBody(results)
}
