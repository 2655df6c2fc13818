package client

import (
	"context"

	"repro/internal/wire"
)

// caller is the one RPC primitive: request body in, response body out.
// Client implements it over a connection; endpoint, Reliable, Failover and
// a Router shard implement it as policies over Clients. Every typed
// operation below is written once against caller, in a method set a front
// embeds to expose exactly the operations its policy is safe for — Reliable
// embeds only the idempotent reads, Peer only what servers say to each
// other, Client all of them.
type caller interface {
	call(ctx context.Context, op wire.Op, body []byte) ([]byte, error)
}

// roundTrip is the shape of every RPC that returns data: send the encoded
// request, decode the response body.
func roundTrip[T any](ctx context.Context, c caller, op wire.Op, body []byte, decode func([]byte) (*T, error)) (*T, error) {
	resp, err := c.call(ctx, op, body)
	if err != nil {
		return nil, err
	}
	return decode(resp)
}

// send is the shape of every RPC whose response carries only its status.
func send(ctx context.Context, c caller, op wire.Op, body []byte) error {
	_, err := c.call(ctx, op, body)
	return err
}

func nameList(ctx context.Context, c caller, op wire.Op, body []byte) ([]string, error) {
	resp, err := roundTrip(ctx, c, op, body, wire.DecodeNamesResponse)
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

func bulkNames(ctx context.Context, c caller, op wire.Op, body []byte) ([]wire.BulkNameResult, error) {
	resp, err := roundTrip(ctx, c, op, body, wire.DecodeBulkNamesResponse)
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

func bulkStatus(ctx context.Context, c caller, op wire.Op, body []byte) ([]wire.BulkFailure, error) {
	resp, err := roundTrip(ctx, c, op, body, wire.DecodeBulkStatusResponse)
	if err != nil {
		return nil, err
	}
	return resp.Failures, nil
}

func nameBody(name string) []byte {
	req := wire.NameRequest{Name: name}
	return req.Encode()
}

func mappingBody(logical, target string) []byte {
	req := wire.MappingRequest{Logical: logical, Target: target}
	return req.Encode()
}

func mappingsBody(mappings []wire.Mapping) []byte {
	req := wire.BulkMappingsRequest{Mappings: mappings}
	return req.Encode()
}

func namesBody(names []string) []byte {
	req := wire.BulkNamesRequest{Names: names}
	return req.Encode()
}

// diagOps are the server diagnostics, valid against any role.
type diagOps struct{ c caller }

// Ping checks liveness.
func (o diagOps) Ping(ctx context.Context) error {
	return send(ctx, o.c, wire.OpPing, nil)
}

// ServerInfo fetches server identity and occupancy.
func (o diagOps) ServerInfo(ctx context.Context) (*wire.ServerInfoResponse, error) {
	return roundTrip(ctx, o.c, wire.OpServerInfo, nil, wire.DecodeServerInfoResponse)
}

// Stats fetches the server's runtime-telemetry snapshot: per-op dispatch
// counters and latency percentiles, soft-state sender health, RLI store
// occupancy and storage activity.
func (o diagOps) Stats(ctx context.Context) (*wire.StatsResponse, error) {
	return roundTrip(ctx, o.c, wire.OpStats, nil, wire.DecodeStatsResponse)
}

// catalogOps are the LRC mutations. None is idempotent, so no retrying
// front embeds them.
type catalogOps struct{ c caller }

// CreateMapping registers a new logical name with its first target.
func (o catalogOps) CreateMapping(ctx context.Context, logical, target string) error {
	return send(ctx, o.c, wire.OpLRCCreateMapping, mappingBody(logical, target))
}

// AddMapping adds another target to an existing logical name.
func (o catalogOps) AddMapping(ctx context.Context, logical, target string) error {
	return send(ctx, o.c, wire.OpLRCAddMapping, mappingBody(logical, target))
}

// DeleteMapping removes one mapping.
func (o catalogOps) DeleteMapping(ctx context.Context, logical, target string) error {
	return send(ctx, o.c, wire.OpLRCDeleteMapping, mappingBody(logical, target))
}

// BulkCreate creates many mappings, returning per-element failures.
func (o catalogOps) BulkCreate(ctx context.Context, mappings []wire.Mapping) ([]wire.BulkFailure, error) {
	return bulkStatus(ctx, o.c, wire.OpLRCBulkCreate, mappingsBody(mappings))
}

// BulkAdd adds many mappings.
func (o catalogOps) BulkAdd(ctx context.Context, mappings []wire.Mapping) ([]wire.BulkFailure, error) {
	return bulkStatus(ctx, o.c, wire.OpLRCBulkAdd, mappingsBody(mappings))
}

// BulkDelete deletes many mappings.
func (o catalogOps) BulkDelete(ctx context.Context, mappings []wire.Mapping) ([]wire.BulkFailure, error) {
	return bulkStatus(ctx, o.c, wire.OpLRCBulkDelete, mappingsBody(mappings))
}

// DefineAttribute declares an attribute.
func (o catalogOps) DefineAttribute(ctx context.Context, name string, obj wire.ObjType, typ wire.AttrType) error {
	req := wire.AttrDefineRequest{Name: name, Obj: obj, Type: typ}
	return send(ctx, o.c, wire.OpAttrDefine, req.Encode())
}

// UndefineAttribute removes an attribute definition.
func (o catalogOps) UndefineAttribute(ctx context.Context, name string, obj wire.ObjType, clearValues bool) error {
	req := wire.AttrUndefineRequest{Name: name, Obj: obj, ClearValues: clearValues}
	return send(ctx, o.c, wire.OpAttrUndefine, req.Encode())
}

// AddAttribute attaches an attribute value to an object.
func (o catalogOps) AddAttribute(ctx context.Context, key string, obj wire.ObjType, name string, v wire.AttrValue) error {
	req := wire.AttrWriteRequest{Key: key, Obj: obj, Name: name, Value: v}
	return send(ctx, o.c, wire.OpAttrAdd, req.Encode())
}

// ModifyAttribute replaces an attribute value on an object.
func (o catalogOps) ModifyAttribute(ctx context.Context, key string, obj wire.ObjType, name string, v wire.AttrValue) error {
	req := wire.AttrWriteRequest{Key: key, Obj: obj, Name: name, Value: v}
	return send(ctx, o.c, wire.OpAttrModify, req.Encode())
}

// RemoveAttribute detaches an attribute value from an object.
func (o catalogOps) RemoveAttribute(ctx context.Context, key string, obj wire.ObjType, name string) error {
	req := wire.AttrRemoveRequest{Key: key, Obj: obj, Name: name}
	return send(ctx, o.c, wire.OpAttrRemove, req.Encode())
}

// BulkAddAttributes attaches many attribute values.
func (o catalogOps) BulkAddAttributes(ctx context.Context, items []wire.AttrWriteRequest) ([]wire.BulkFailure, error) {
	req := wire.AttrBulkWriteRequest{Items: items}
	return bulkStatus(ctx, o.c, wire.OpAttrBulkAdd, req.Encode())
}

// BulkRemoveAttributes detaches many attribute values.
func (o catalogOps) BulkRemoveAttributes(ctx context.Context, items []wire.AttrRemoveRequest) ([]wire.BulkFailure, error) {
	req := wire.AttrBulkRemoveRequest{Items: items}
	return bulkStatus(ctx, o.c, wire.OpAttrBulkRemove, req.Encode())
}

// AddRLITarget starts LRC updates to an RLI.
func (o catalogOps) AddRLITarget(ctx context.Context, t wire.RLITarget) error {
	req := wire.RLIAddRequest{Target: t}
	return send(ctx, o.c, wire.OpLRCRLIAdd, req.Encode())
}

// RemoveRLITarget stops LRC updates to an RLI.
func (o catalogOps) RemoveRLITarget(ctx context.Context, url string) error {
	return send(ctx, o.c, wire.OpLRCRLIRemove, nameBody(url))
}

// lrcQueryOps are the LRC reads; all idempotent.
type lrcQueryOps struct{ c caller }

// GetTargets returns the targets of a logical name.
func (o lrcQueryOps) GetTargets(ctx context.Context, logical string) ([]string, error) {
	return nameList(ctx, o.c, wire.OpLRCGetTargets, nameBody(logical))
}

// GetLogicals returns the logical names of a target.
func (o lrcQueryOps) GetLogicals(ctx context.Context, target string) ([]string, error) {
	return nameList(ctx, o.c, wire.OpLRCGetLogicals, nameBody(target))
}

// WildcardTargets finds mappings whose logical name matches the pattern.
func (o lrcQueryOps) WildcardTargets(ctx context.Context, pattern string) ([]wire.BulkNameResult, error) {
	return bulkNames(ctx, o.c, wire.OpLRCGetTargetsWild, nameBody(pattern))
}

// WildcardLogicals finds mappings whose target name matches the pattern.
func (o lrcQueryOps) WildcardLogicals(ctx context.Context, pattern string) ([]wire.BulkNameResult, error) {
	return bulkNames(ctx, o.c, wire.OpLRCGetLogicalsWild, nameBody(pattern))
}

// BulkGetTargets resolves many logical names.
func (o lrcQueryOps) BulkGetTargets(ctx context.Context, names []string) ([]wire.BulkNameResult, error) {
	return bulkNames(ctx, o.c, wire.OpLRCBulkGetTargets, namesBody(names))
}

// BulkGetLogicals resolves many target names.
func (o lrcQueryOps) BulkGetLogicals(ctx context.Context, names []string) ([]wire.BulkNameResult, error) {
	return bulkNames(ctx, o.c, wire.OpLRCBulkGetLogicals, namesBody(names))
}

// GetAttributes lists attribute values on an object.
func (o lrcQueryOps) GetAttributes(ctx context.Context, key string, obj wire.ObjType, names []string) ([]wire.NamedAttr, error) {
	req := wire.AttrGetRequest{Key: key, Obj: obj, Names: names}
	resp, err := roundTrip(ctx, o.c, wire.OpAttrGet, req.Encode(), wire.DecodeAttrGetResponse)
	if err != nil {
		return nil, err
	}
	return resp.Attrs, nil
}

// SearchAttribute finds objects by attribute comparison.
func (o lrcQueryOps) SearchAttribute(ctx context.Context, name string, obj wire.ObjType, cmp wire.CmpOp, probe wire.AttrValue) ([]wire.ObjAttr, error) {
	req := wire.AttrSearchRequest{Name: name, Obj: obj, Cmp: cmp, Value: probe}
	resp, err := roundTrip(ctx, o.c, wire.OpAttrSearch, req.Encode(), wire.DecodeAttrSearchResponse)
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// ListAttributeDefs lists attribute definitions (obj 0 = both types).
func (o lrcQueryOps) ListAttributeDefs(ctx context.Context, obj wire.ObjType) ([]wire.AttrDef, error) {
	req := wire.AttrListDefsRequest{Obj: obj}
	resp, err := roundTrip(ctx, o.c, wire.OpAttrListDefs, req.Encode(), wire.DecodeAttrListDefsResponse)
	if err != nil {
		return nil, err
	}
	return resp.Defs, nil
}

// ListRLITargets lists the RLIs the LRC updates.
func (o lrcQueryOps) ListRLITargets(ctx context.Context) ([]wire.RLITarget, error) {
	resp, err := roundTrip(ctx, o.c, wire.OpLRCRLIList, nil, wire.DecodeRLIListResponse)
	if err != nil {
		return nil, err
	}
	return resp.Targets, nil
}

// rliQueryOps are the RLI reads; all idempotent.
type rliQueryOps struct{ c caller }

// RLIQuery returns the LRCs that may hold mappings for a logical name.
func (o rliQueryOps) RLIQuery(ctx context.Context, logical string) ([]string, error) {
	lrcs, _, err := o.RLIQueryDetailed(ctx, logical)
	return lrcs, err
}

// RLIQueryDetailed returns the LRCs for a logical name plus the response's
// staleness flag — true when a contributing LRC's soft state has outlived
// its timeout without a refresh.
func (o rliQueryOps) RLIQueryDetailed(ctx context.Context, logical string) ([]string, bool, error) {
	resp, err := roundTrip(ctx, o.c, wire.OpRLIGetLRCs, nameBody(logical), wire.DecodeNamesResponse)
	if err != nil {
		return nil, false, err
	}
	return resp.Names, resp.Stale, nil
}

// RLIWildcardQuery finds {logical name, LRC} pairs by wildcard.
func (o rliQueryOps) RLIWildcardQuery(ctx context.Context, pattern string) ([]wire.BulkNameResult, error) {
	return bulkNames(ctx, o.c, wire.OpRLIGetLRCsWild, nameBody(pattern))
}

// RLIBulkQuery resolves many logical names at an RLI.
func (o rliQueryOps) RLIBulkQuery(ctx context.Context, names []string) ([]wire.BulkNameResult, error) {
	return bulkNames(ctx, o.c, wire.OpRLIBulkGetLRCs, namesBody(names))
}

// RLILRCList lists the LRCs updating the RLI.
func (o rliQueryOps) RLILRCList(ctx context.Context) ([]string, error) {
	return nameList(ctx, o.c, wire.OpRLILRCList, nil)
}

// softStateOps are the LRC→RLI (and child→parent RLI) update sends; with
// Close they make a front an lrc.Updater and an rli.Updater.
type softStateOps struct{ c caller }

// SSFullStart opens a full soft state update.
func (o softStateOps) SSFullStart(ctx context.Context, lrcURL string, total uint64) error {
	req := wire.SSFullStartRequest{LRC: lrcURL, Total: total}
	return send(ctx, o.c, wire.OpSSFullStart, req.Encode())
}

// fullBatch encodes one full-update batch; the blocking SSFullBatch and the
// windowed Client.SSFullBatchStart send the same frame.
func fullBatch(lrcURL string, names []string) (wire.Op, []byte) {
	req := wire.SSFullBatchRequest{LRC: lrcURL, Names: names}
	return wire.OpSSFullBatch, req.Encode()
}

// SSFullBatch sends one batch of a full update.
func (o softStateOps) SSFullBatch(ctx context.Context, lrcURL string, names []string) error {
	op, body := fullBatch(lrcURL, names)
	return send(ctx, o.c, op, body)
}

// SSFullEnd completes a full update.
func (o softStateOps) SSFullEnd(ctx context.Context, lrcURL string) error {
	return send(ctx, o.c, wire.OpSSFullEnd, nameBody(lrcURL))
}

// SSIncremental sends an immediate-mode update.
func (o softStateOps) SSIncremental(ctx context.Context, lrcURL string, added, removed []string) error {
	req := wire.SSIncrementalRequest{LRC: lrcURL, Added: added, Removed: removed}
	return send(ctx, o.c, wire.OpSSIncremental, req.Encode())
}

// SSBloom sends a Bloom filter update.
func (o softStateOps) SSBloom(ctx context.Context, lrcURL string, bitmap []byte) error {
	req := wire.SSBloomRequest{LRC: lrcURL, Bitmap: bitmap}
	return send(ctx, o.c, wire.OpSSBloom, req.Encode())
}

// SSFullAbort discards a half-finished full-update session server-side. The
// soft-state sender issues it on the error path of a failed full update so
// the RLI does not hold the partial session until expiry.
func (o softStateOps) SSFullAbort(ctx context.Context, lrcURL string) error {
	return send(ctx, o.c, wire.OpSSFullAbort, nameBody(lrcURL))
}

// memberOps are the operations against a membership seed, plus the
// warm-standby snapshot fetch: the client face of membership.Agent (with
// Close, a membership.MemberClient) and the RLI bootstrap path.
type memberOps struct{ c caller }

// MemberJoin registers (or re-registers) a node with the seed.
func (o memberOps) MemberJoin(ctx context.Context, m wire.MemberInfo) error {
	req := wire.MemberJoinRequest{Member: m}
	return send(ctx, o.c, wire.OpMemberJoin, req.Encode())
}

// MemberLeave deregisters a node by name.
func (o memberOps) MemberLeave(ctx context.Context, name string) error {
	return send(ctx, o.c, wire.OpMemberLeave, nameBody(name))
}

// MemberHeartbeat renews a node's lease. ErrNotFound reports that the seed
// already expired the member; the caller should re-join.
func (o memberOps) MemberHeartbeat(ctx context.Context, name string) error {
	return send(ctx, o.c, wire.OpMemberHeartbeat, nameBody(name))
}

// MemberView pulls the seed's membership view. When the view has not
// advanced past since, the response has Changed=false and no member list.
func (o memberOps) MemberView(ctx context.Context, since uint64) (*wire.MemberViewResponse, error) {
	req := wire.MemberViewRequest{SinceGeneration: since}
	return roundTrip(ctx, o.c, wire.OpMemberView, req.Encode(), wire.DecodeMemberViewResponse)
}

// RLISnapshot fetches an RLI's in-memory Bloom store for warm-standby
// bootstrap.
func (o memberOps) RLISnapshot(ctx context.Context) ([]wire.RLIFilterState, error) {
	resp, err := roundTrip(ctx, o.c, wire.OpRLISnapshot, nil, wire.DecodeRLISnapshotResponse)
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}
