package server

import (
	"context"
	"testing"

	"repro/internal/auth"
	"repro/internal/wire"
)

// pinnedOps is the op -> (privilege, role) contract, written out literally
// so that an edit to the ops table that moves an operation to a weaker
// privilege or another role fails here rather than in production.
var pinnedOps = []struct {
	op   wire.Op
	priv auth.Privilege
	role role
}{
	{wire.OpPing, "", roleAny},
	{wire.OpServerInfo, "", roleAny},
	{wire.OpStats, "", roleAny},

	{wire.OpLRCCreateMapping, auth.PrivLRCWrite, roleLRC},
	{wire.OpLRCAddMapping, auth.PrivLRCWrite, roleLRC},
	{wire.OpLRCDeleteMapping, auth.PrivLRCWrite, roleLRC},
	{wire.OpLRCBulkCreate, auth.PrivLRCWrite, roleLRC},
	{wire.OpLRCBulkAdd, auth.PrivLRCWrite, roleLRC},
	{wire.OpLRCBulkDelete, auth.PrivLRCWrite, roleLRC},

	{wire.OpLRCGetTargets, auth.PrivLRCRead, roleLRC},
	{wire.OpLRCGetLogicals, auth.PrivLRCRead, roleLRC},
	{wire.OpLRCGetTargetsWild, auth.PrivLRCRead, roleLRC},
	{wire.OpLRCGetLogicalsWild, auth.PrivLRCRead, roleLRC},
	{wire.OpLRCBulkGetTargets, auth.PrivLRCRead, roleLRC},
	{wire.OpLRCBulkGetLogicals, auth.PrivLRCRead, roleLRC},

	{wire.OpAttrDefine, auth.PrivLRCWrite, roleLRC},
	{wire.OpAttrUndefine, auth.PrivLRCWrite, roleLRC},
	{wire.OpAttrAdd, auth.PrivLRCWrite, roleLRC},
	{wire.OpAttrModify, auth.PrivLRCWrite, roleLRC},
	{wire.OpAttrRemove, auth.PrivLRCWrite, roleLRC},
	{wire.OpAttrGet, auth.PrivLRCRead, roleLRC},
	{wire.OpAttrSearch, auth.PrivLRCRead, roleLRC},
	{wire.OpAttrBulkAdd, auth.PrivLRCWrite, roleLRC},
	{wire.OpAttrBulkRemove, auth.PrivLRCWrite, roleLRC},
	{wire.OpAttrListDefs, auth.PrivLRCRead, roleLRC},

	{wire.OpLRCRLIList, auth.PrivLRCRead, roleLRC},
	{wire.OpLRCRLIAdd, auth.PrivAdmin, roleLRC},
	{wire.OpLRCRLIRemove, auth.PrivAdmin, roleLRC},

	{wire.OpRLIGetLRCs, auth.PrivRLIRead, roleRLI},
	{wire.OpRLIGetLRCsWild, auth.PrivRLIRead, roleRLI},
	{wire.OpRLIBulkGetLRCs, auth.PrivRLIRead, roleRLI},
	{wire.OpRLILRCList, auth.PrivRLIRead, roleRLI},
	{wire.OpRLISnapshot, auth.PrivRLIRead, roleRLI},

	{wire.OpSSFullStart, auth.PrivRLIWrite, roleRLI},
	{wire.OpSSFullBatch, auth.PrivRLIWrite, roleRLI},
	{wire.OpSSFullEnd, auth.PrivRLIWrite, roleRLI},
	{wire.OpSSIncremental, auth.PrivRLIWrite, roleRLI},
	{wire.OpSSBloom, auth.PrivRLIWrite, roleRLI},
	{wire.OpSSFullAbort, auth.PrivRLIWrite, roleRLI},

	{wire.OpMemberJoin, auth.PrivAdmin, roleMember},
	{wire.OpMemberLeave, auth.PrivAdmin, roleMember},
	{wire.OpMemberHeartbeat, auth.PrivAdmin, roleMember},
	// Membership view pulls are deliberately open: any agent doing
	// anti-entropy (LRC target sync, standby discovery) may read the
	// current view without holding a write privilege.
	{wire.OpMemberView, "", roleMember},
}

func TestOpTablePinned(t *testing.T) {
	seen := make(map[wire.Op]bool, len(pinnedOps))
	for _, want := range pinnedOps {
		if seen[want.op] {
			t.Errorf("%s pinned twice", want.op)
		}
		seen[want.op] = true
		row := ops[want.op]
		if row.priv != want.priv || row.role != want.role {
			t.Errorf("%s = (%q, role %d), pinned (%q, role %d)", want.op, row.priv, row.role, want.priv, want.role)
		}
	}
	open := map[wire.Op]bool{wire.OpPing: true, wire.OpServerInfo: true, wire.OpStats: true, wire.OpMemberView: true}
	for op := wire.OpPing; op.Valid(); op++ {
		row := ops[op]
		if !seen[op] {
			t.Errorf("%s is not pinned", op)
		}
		if row.handle == nil {
			t.Errorf("%s has no handler", op)
		}
		if (row.priv == "") != open[op] {
			t.Errorf("%s requires %q; only ping, server_info, stats and member_view are open", op, row.priv)
		}
		if row.priv != "" && !row.priv.Valid() {
			t.Errorf("%s maps to invalid privilege %q", op, row.priv)
		}
	}
}

// reqShape is one request encoding: the typed decoder, a valid body, and the
// ops that take it. It is the test-side reference for "which decoder does
// this op run", independent of the table under test.
type reqShape struct {
	name   string
	valid  []byte
	decode func([]byte) error
	ops    []wire.Op
}

func shape[Q any](name string, valid []byte, dec func([]byte) (*Q, error), ops ...wire.Op) reqShape {
	return reqShape{name, valid, func(b []byte) error { _, err := dec(b); return err }, ops}
}

var reqShapes = func() []reqShape {
	attrWrite := wire.AttrWriteRequest{Key: "lfn://x", Obj: wire.ObjLogical, Name: "size", Value: wire.AttrValue{Type: wire.AttrInt, I: 7}}
	attrRemove := wire.AttrRemoveRequest{Key: "lfn://x", Obj: wire.ObjLogical, Name: "size"}
	return []reqShape{
		shape("none", nil, noBody,
			wire.OpPing, wire.OpServerInfo, wire.OpStats, wire.OpLRCRLIList, wire.OpRLILRCList, wire.OpRLISnapshot),
		shape("name", (&wire.NameRequest{Name: "lfn://x"}).Encode(), wire.DecodeNameRequest,
			wire.OpLRCGetTargets, wire.OpLRCGetLogicals, wire.OpLRCGetTargetsWild, wire.OpLRCGetLogicalsWild,
			wire.OpLRCRLIRemove, wire.OpRLIGetLRCs, wire.OpRLIGetLRCsWild, wire.OpSSFullEnd, wire.OpSSFullAbort,
			wire.OpMemberLeave, wire.OpMemberHeartbeat),
		shape("mapping", (&wire.MappingRequest{Logical: "lfn://x", Target: "pfn://x"}).Encode(), wire.DecodeMappingRequest,
			wire.OpLRCCreateMapping, wire.OpLRCAddMapping, wire.OpLRCDeleteMapping),
		shape("bulk mappings", (&wire.BulkMappingsRequest{Mappings: []wire.Mapping{{Logical: "lfn://b", Target: "pfn://b"}}}).Encode(), wire.DecodeBulkMappingsRequest,
			wire.OpLRCBulkCreate, wire.OpLRCBulkAdd, wire.OpLRCBulkDelete),
		shape("bulk names", (&wire.BulkNamesRequest{Names: []string{"lfn://x", "lfn://y"}}).Encode(), wire.DecodeBulkNamesRequest,
			wire.OpLRCBulkGetTargets, wire.OpLRCBulkGetLogicals, wire.OpRLIBulkGetLRCs),
		shape("attr define", (&wire.AttrDefineRequest{Name: "size", Obj: wire.ObjLogical, Type: wire.AttrInt}).Encode(), wire.DecodeAttrDefineRequest,
			wire.OpAttrDefine),
		shape("attr undefine", (&wire.AttrUndefineRequest{Name: "size", Obj: wire.ObjLogical, ClearValues: true}).Encode(), wire.DecodeAttrUndefineRequest,
			wire.OpAttrUndefine),
		shape("attr write", attrWrite.Encode(), wire.DecodeAttrWriteRequest,
			wire.OpAttrAdd, wire.OpAttrModify),
		shape("attr remove", attrRemove.Encode(), wire.DecodeAttrRemoveRequest,
			wire.OpAttrRemove),
		shape("attr get", (&wire.AttrGetRequest{Key: "lfn://x", Obj: wire.ObjLogical, Names: []string{"size"}}).Encode(), wire.DecodeAttrGetRequest,
			wire.OpAttrGet),
		shape("attr search", (&wire.AttrSearchRequest{Name: "size", Obj: wire.ObjLogical, Cmp: wire.CmpEQ, Value: attrWrite.Value}).Encode(), wire.DecodeAttrSearchRequest,
			wire.OpAttrSearch),
		shape("attr bulk write", (&wire.AttrBulkWriteRequest{Items: []wire.AttrWriteRequest{attrWrite}}).Encode(), wire.DecodeAttrBulkWriteRequest,
			wire.OpAttrBulkAdd),
		shape("attr bulk remove", (&wire.AttrBulkRemoveRequest{Items: []wire.AttrRemoveRequest{attrRemove}}).Encode(), wire.DecodeAttrBulkRemoveRequest,
			wire.OpAttrBulkRemove),
		shape("attr list defs", (&wire.AttrListDefsRequest{Obj: wire.ObjLogical}).Encode(), wire.DecodeAttrListDefsRequest,
			wire.OpAttrListDefs),
		shape("rli add", (&wire.RLIAddRequest{Target: wire.RLITarget{URL: "rls://rli", Bloom: true, Patterns: []string{"lfn://.*"}}}).Encode(), wire.DecodeRLIAddRequest,
			wire.OpLRCRLIAdd),
		shape("ss full start", (&wire.SSFullStartRequest{LRC: "rls://lrc", Total: 2}).Encode(), wire.DecodeSSFullStartRequest,
			wire.OpSSFullStart),
		shape("ss full batch", (&wire.SSFullBatchRequest{LRC: "rls://lrc", Names: []string{"lfn://x"}}).Encode(), wire.DecodeSSFullBatchRequest,
			wire.OpSSFullBatch),
		shape("ss incremental", (&wire.SSIncrementalRequest{LRC: "rls://lrc", Added: []string{"lfn://a"}, Removed: []string{"lfn://r"}}).Encode(), wire.DecodeSSIncrementalRequest,
			wire.OpSSIncremental),
		shape("ss bloom", (&wire.SSBloomRequest{LRC: "rls://lrc", Bitmap: []byte{1, 2, 3}}).Encode(), wire.DecodeSSBloomRequest,
			wire.OpSSBloom),
		shape("member join", (&wire.MemberJoinRequest{Member: wire.MemberInfo{Name: "n1", URL: "rls://n1", Roles: []string{"lrc"}}}).Encode(), wire.DecodeMemberJoinRequest,
			wire.OpMemberJoin),
		shape("member view", (&wire.MemberViewRequest{SinceGeneration: 3}).Encode(), wire.DecodeMemberViewRequest,
			wire.OpMemberView),
	}
}()

// shapeOf indexes reqShapes by op.
func shapeOf(t testing.TB) map[wire.Op]*reqShape {
	t.Helper()
	byOp := make(map[wire.Op]*reqShape, wire.NumOps)
	for i := range reqShapes {
		for _, op := range reqShapes[i].ops {
			if byOp[op] != nil {
				t.Fatalf("%s listed under two request shapes", op)
			}
			byOp[op] = &reqShapes[i]
		}
	}
	for op := wire.OpPing; op.Valid(); op++ {
		if byOp[op] == nil {
			t.Fatalf("%s has no request shape in reqShapes", op)
		}
	}
	return byOp
}

// stubMembers is a seed registry that accepts everything.
type stubMembers struct{}

func (stubMembers) HandleJoin(context.Context, wire.MemberInfo) error { return nil }
func (stubMembers) HandleLeave(context.Context, string) error         { return nil }
func (stubMembers) HandleHeartbeat(context.Context, string) error     { return nil }
func (stubMembers) HandleView(_ context.Context, since uint64) (*wire.MemberViewResponse, error) {
	return &wire.MemberViewResponse{Generation: since}, nil
}

// newAllRolesServer serves every role from memory: no listener, no dialer,
// no periodic scheduler, so dispatch can be driven directly.
func newAllRolesServer(t testing.TB) *Server {
	return newServer(t, Config{LRC: newLRCService(t), RLI: newRLIService(t), Members: stubMembers{}})
}

// TestMalformedBodyIsBadRequest: a body the op's decoder rejects is the
// client's fault on every op, never StatusInternal — client.Failover retries
// StatusInternal on the next replica, so a server fault here would walk one
// malformed request across the whole group.
func TestMalformedBodyIsBadRequest(t *testing.T) {
	s := newAllRolesServer(t)
	for op, sh := range shapeOf(t) {
		bodies := map[string][]byte{"trailing byte": append(append([]byte{}, sh.valid...), 0)}
		if len(sh.valid) > 0 {
			bodies["truncated"] = sh.valid[:len(sh.valid)-1]
		}
		for kind, body := range bodies {
			if sh.decode(body) == nil {
				t.Fatalf("%s: the %s decoder accepts a %s body", op, sh.name, kind)
			}
			resp := s.dispatch(ctx, auth.Identity{}, &wire.Request{ID: 9, Op: op, Body: body})
			if resp.Status != wire.StatusBadRequest || resp.ID != 9 {
				t.Errorf("%s with a %s %s body = id %d %v %q, want bad request", op, kind, sh.name, resp.ID, resp.Status, resp.Err)
			}
		}
	}
}

// FuzzDispatch drives the request side end to end below the socket:
// arbitrary (op, body) into dispatch on a server holding every role.
func FuzzDispatch(f *testing.F) {
	byOp := shapeOf(f)
	for op := wire.OpPing; op.Valid(); op++ {
		f.Add(uint16(op), byOp[op].valid)
	}
	f.Add(uint16(wire.OpInvalid), []byte(nil))
	f.Add(uint16(wire.NumOps), []byte("x"))
	s := newAllRolesServer(f)
	f.Fuzz(func(t *testing.T, opcode uint16, body []byte) {
		op := wire.Op(opcode)
		resp := s.dispatch(ctx, auth.Identity{}, &wire.Request{ID: uint64(opcode) + 1, Op: op, Body: body})
		if resp.ID != uint64(opcode)+1 {
			t.Fatalf("%s: response ID %d, request ID %d", op, resp.ID, uint64(opcode)+1)
		}
		switch {
		case !op.Valid():
			if resp.Status != wire.StatusBadRequest {
				t.Fatalf("invalid op %d = %v, want bad request", opcode, resp.Status)
			}
		case byOp[op].decode(body) != nil:
			if resp.Status != wire.StatusBadRequest {
				t.Fatalf("%s with a body its decoder rejects = %v %q, want bad request", op, resp.Status, resp.Err)
			}
		case resp.Status == wire.StatusUnsupported || resp.Status == wire.StatusDenied:
			t.Fatalf("%s on an open all-roles server = %v", op, resp.Status)
		}
	})
}
