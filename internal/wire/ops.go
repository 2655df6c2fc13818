package wire

import "fmt"

// Op identifies an RPC operation. The set mirrors Table 1 of the paper
// (LRC mapping management, attribute management, queries, LRC management;
// RLI queries and management) plus the server-to-server soft state update
// operations and two diagnostics.
type Op uint16

// Operations.
const (
	OpInvalid Op = iota

	// Diagnostics.
	OpPing
	OpServerInfo

	// LRC mapping management.
	OpLRCCreateMapping // create a logical name with its first target
	OpLRCAddMapping    // add another target to an existing logical name
	OpLRCDeleteMapping
	OpLRCBulkCreate
	OpLRCBulkAdd
	OpLRCBulkDelete

	// LRC query operations.
	OpLRCGetTargets      // logical name -> target names
	OpLRCGetLogicals     // target name -> logical names
	OpLRCGetTargetsWild  // wildcard pattern over logical names
	OpLRCGetLogicalsWild // wildcard pattern over target names
	OpLRCBulkGetTargets  // bulk logical -> targets
	OpLRCBulkGetLogicals // bulk target -> logicals

	// LRC attribute management.
	OpAttrDefine
	OpAttrUndefine
	OpAttrAdd
	OpAttrModify
	OpAttrRemove
	OpAttrGet
	OpAttrSearch
	OpAttrBulkAdd
	OpAttrBulkRemove
	OpAttrListDefs

	// LRC management.
	OpLRCRLIList
	OpLRCRLIAdd
	OpLRCRLIRemove

	// RLI query operations.
	OpRLIGetLRCs
	OpRLIGetLRCsWild
	OpRLIBulkGetLRCs

	// RLI management.
	OpRLILRCList

	// Soft state updates (LRC server -> RLI server).
	OpSSFullStart
	OpSSFullBatch
	OpSSFullEnd
	OpSSIncremental
	OpSSBloom

	// Observability: typed runtime-telemetry snapshot.
	OpStats

	// OpSSFullAbort discards a half-finished full-update session (LRC server
	// -> RLI server), sent on the LRC's error path so a failed stream does
	// not linger server-side until session expiry. Appended after OpStats to
	// preserve the numbering of earlier opcodes.
	OpSSFullAbort

	// Runtime membership (node -> seed server). Nodes register themselves
	// with join/heartbeat, seeds expire silent members, and every node pulls
	// generation-numbered views for anti-entropy. Appended to preserve the
	// numbering of earlier opcodes.
	OpMemberJoin
	OpMemberLeave
	OpMemberHeartbeat
	OpMemberView

	// OpRLISnapshot exports an RLI's in-memory Bloom store (warm-standby
	// bootstrap: a fresh replica imports a peer's snapshot instead of waiting
	// out a full soft-state period).
	OpRLISnapshot

	opMax // sentinel
)

// NumOps is the size of a dense per-op table (valid ops are 1..NumOps-1).
const NumOps = int(opMax)

// opNames is dense so that a missing name is an empty slot a loop can find.
var opNames = [opMax]string{
	OpPing:               "ping",
	OpServerInfo:         "server_info",
	OpLRCCreateMapping:   "lrc_create_mapping",
	OpLRCAddMapping:      "lrc_add_mapping",
	OpLRCDeleteMapping:   "lrc_delete_mapping",
	OpLRCBulkCreate:      "lrc_bulk_create",
	OpLRCBulkAdd:         "lrc_bulk_add",
	OpLRCBulkDelete:      "lrc_bulk_delete",
	OpLRCGetTargets:      "lrc_get_targets",
	OpLRCGetLogicals:     "lrc_get_logicals",
	OpLRCGetTargetsWild:  "lrc_get_targets_wild",
	OpLRCGetLogicalsWild: "lrc_get_logicals_wild",
	OpLRCBulkGetTargets:  "lrc_bulk_get_targets",
	OpLRCBulkGetLogicals: "lrc_bulk_get_logicals",
	OpAttrDefine:         "attr_define",
	OpAttrUndefine:       "attr_undefine",
	OpAttrAdd:            "attr_add",
	OpAttrModify:         "attr_modify",
	OpAttrRemove:         "attr_remove",
	OpAttrGet:            "attr_get",
	OpAttrSearch:         "attr_search",
	OpAttrBulkAdd:        "attr_bulk_add",
	OpAttrBulkRemove:     "attr_bulk_remove",
	OpAttrListDefs:       "attr_list_defs",
	OpLRCRLIList:         "lrc_rli_list",
	OpLRCRLIAdd:          "lrc_rli_add",
	OpLRCRLIRemove:       "lrc_rli_remove",
	OpRLIGetLRCs:         "rli_get_lrcs",
	OpRLIGetLRCsWild:     "rli_get_lrcs_wild",
	OpRLIBulkGetLRCs:     "rli_bulk_get_lrcs",
	OpRLILRCList:         "rli_lrc_list",
	OpSSFullStart:        "ss_full_start",
	OpSSFullBatch:        "ss_full_batch",
	OpSSFullEnd:          "ss_full_end",
	OpSSIncremental:      "ss_incremental",
	OpSSBloom:            "ss_bloom",
	OpStats:              "stats",
	OpSSFullAbort:        "ss_full_abort",
	OpMemberJoin:         "member_join",
	OpMemberLeave:        "member_leave",
	OpMemberHeartbeat:    "member_heartbeat",
	OpMemberView:         "member_view",
	OpRLISnapshot:        "rli_snapshot",
}

// String names the op for logs and errors.
func (o Op) String() string {
	if o < opMax && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint16(o))
}

// Valid reports whether the op is a known operation.
func (o Op) Valid() bool { return o > OpInvalid && o < opMax }

// Status is the outcome code of an RPC or handshake.
type Status uint16

// Status codes.
const (
	StatusOK Status = iota
	StatusDenied
	StatusNotFound
	StatusExists
	StatusBadRequest
	StatusUnsupported // op not served by this server's role configuration
	StatusInternal
	// StatusRetryLater is a typed load-shed: the server's in-flight window
	// is saturated and the client should back off and retry, instead of the
	// connection being silently closed.
	StatusRetryLater
)

var statusNames = map[Status]string{
	StatusOK:          "ok",
	StatusDenied:      "permission denied",
	StatusNotFound:    "not found",
	StatusExists:      "already exists",
	StatusBadRequest:  "bad request",
	StatusUnsupported: "operation not supported by server role",
	StatusInternal:    "internal error",
	StatusRetryLater:  "overloaded, retry later",
}

// String names the status.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("status(%d)", uint16(s))
}
