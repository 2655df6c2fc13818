package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/bloom"
	"repro/internal/btree"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The ladder is the paper's Fig. 7 generalised: the same op on the same
// catalog timed at every layer boundary, so the cost a layer adds is the
// difference between its rung and the rung below. It runs on a rig of its
// own that has every deployment shape of the workloads at the same catalog
// size: a memory-only LRC on the serial serve loop (reads), a durable LRC on
// the pipelined loop (writes), the two RLI flavours, and the shard tier.
//
// Writes above the storage rung run with the per-commit flush off, so their
// differences are CPU costs and not fsync jitter; the flush is reported on
// its own as storage.tx_sync_ns minus storage.tx_ns.

const (
	readOps   = 2000 // samples per read rung
	writeOps  = 1000 // samples per write rung
	microOps  = 200  // samples per sub-microsecond rung, each a batch of microRep calls
	microRep  = 100
	bulkOps   = 60 // samples per 1000-name rung
	walTail   = 1000
	scratch   = "bench_scratch"
	scratchIx = "by_name"
)

// rungStat is one rung's result: the median time of a call, and the mean
// allocations of a call (whole process, so a client rung includes the server
// side it drives).
type rungStat struct{ ns, allocs, bytes float64 }

type ladder struct {
	ctx  context.Context
	tr   *tracer
	root spanRef
	res  *result
	// err is the first failure of any rung; once set, later rungs are
	// skipped and the ladder reports it instead of its metrics.
	err error
}

func (l *ladder) span(name, above string, i int, t0, t1 time.Time) span {
	parent := l.root
	if above != "" {
		parent = spanRef{above, int64(i)}
	}
	return span{name: name, id: int64(i), parent: parent, start: l.tr.rel(t0), end: l.tr.rel(t1)}
}

// rung times n samples of fn on its own, each a batch of rep calls, and
// counts what they allocate.
func (l *ladder) rung(name string, n, rep int, fn func(i int) error) rungStat {
	if l.err != nil {
		return rungStat{}
	}
	spans := make([]span, 0, n)
	ns := make([]float64, 0, n)
	mem0 := memNow()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for k := 0; k < rep; k++ {
			if err := fn(i*rep + k); err != nil {
				l.err = fmt.Errorf("%s[%d]: %w", name, i*rep+k, err)
				return rungStat{}
			}
		}
		t1 := time.Now()
		spans = append(spans, l.span(name, "", i, t0, t1))
		ns = append(ns, float64(t1.Sub(t0))/float64(rep))
	}
	mem := memSince(mem0)
	l.tr.add(spans)
	calls := float64(n * rep)
	return rungStat{ns: median(ns), allocs: float64(mem.mallocs) / calls, bytes: float64(mem.bytes) / calls}
}

// step is one rung of a family that is climbed together.
type step struct {
	name  string
	above string            // the rung whose span is this one's parent
	do    func(i int) error // timed
	undo  func(i int) error // untimed; restores what do changed
}

// timings are a family's samples in ns, by step name, indexed by op id.
type timings map[string][]float64

// climbTogether runs n rounds, and in round i every step performs op i in
// turn. Heap growth, GC state and clock speed drift over a run; taking the
// rungs of one op back to back makes them drift together, so the difference
// between two rungs is paired per op id.
func (l *ladder) climbTogether(n int, steps []step) timings {
	out := timings{}
	if l.err != nil {
		return out
	}
	spans := make([]span, 0, n*len(steps))
	for i := 0; i < n; i++ {
		for _, s := range steps {
			t0 := time.Now()
			err := s.do(i)
			t1 := time.Now()
			if err == nil && s.undo != nil {
				err = s.undo(i)
			}
			if err != nil {
				l.err = fmt.Errorf("%s[%d]: %w", s.name, i, err)
				return out
			}
			spans = append(spans, l.span(s.name, s.above, i, t0, t1))
			out[s.name] = append(out[s.name], float64(t1.Sub(t0)))
		}
	}
	l.tr.add(spans)
	return out
}

// incl is a rung's median inclusive time.
func (t timings) incl(name string) float64 { return median(t[name]) }

// self is the median over op ids of a rung's time minus the rung below's.
func (t timings) self(name, below string) float64 {
	a, b := t[name], t[below]
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// allocsOf is the mean allocation count and bytes of n calls of fn.
func (l *ladder) allocsOf(n int, fn func(i int) error) (allocs, bytes float64) {
	mem0 := memNow()
	l.each(n, fn)
	mem := memSince(mem0)
	return float64(mem.mallocs) / float64(n), float64(mem.bytes) / float64(n)
}

// each runs fn for every op id, untimed: the clean-up between rungs.
func (l *ladder) each(n int, fn func(i int) error) {
	for i := 0; i < n && l.err == nil; i++ {
		l.err = fn(i)
	}
}

func (l *ladder) ns(name string, v float64)    { l.res.set(name, v, "ns", "") }
func (l *ladder) count(name string, v float64) { l.res.set(name, v, "count", "") }

// rawConn speaks the wire protocol to a server without the client package:
// the rung between the client library and the service methods.
type rawConn struct {
	c  *wire.Conn
	id uint64
}

func dialRaw(n *core.Node) (*rawConn, error) {
	mine, theirs := netsim.Pipe(netsim.Unshaped())
	go n.Server.ServeConn(theirs)
	c := wire.NewConn(mine)
	if err := c.WriteFrame((&wire.Hello{}).Encode()); err != nil {
		return nil, err
	}
	payload, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	if ack, err := wire.DecodeHelloAck(payload); err != nil || ack.Status != wire.StatusOK {
		return nil, fmt.Errorf("handshake: %v %v", ack, err)
	}
	return &rawConn{c: c}, nil
}

func (r *rawConn) call(op wire.Op, body []byte) ([]byte, error) {
	r.id++
	if err := r.c.WriteRequest(&wire.Request{ID: r.id, Op: op, Body: body}); err != nil {
		return nil, err
	}
	payload, err := r.c.ReadFrame()
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		return nil, err
	}
	if resp.ID != r.id || resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("response id %d status %s: %s", resp.ID, resp.Status, resp.Err)
	}
	return resp.Body, nil
}

// names is a name query (GetTargets, RLIQuery) in raw frames.
func (r *rawConn) names(op wire.Op, name string) ([]string, error) {
	body, err := r.call(op, (&wire.NameRequest{Name: name}).Encode())
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeNamesResponse(body)
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

func oneName(got []string, err error, want string) error {
	if err != nil {
		return err
	}
	if len(got) != 1 || got[0] != want {
		return fmt.Errorf("got %v, want [%s]", got, want)
	}
	return nil
}

func runLadder(ctx context.Context, e env, tr *tracer, root spanRef, res *result) error {
	l := &ladder{ctx: ctx, tr: tr, root: root, res: res}
	dir, err := os.MkdirTemp(e.workdir, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := l.climb(e, dir); err != nil {
		return err
	}
	return l.recovery(dir + "/lrc")
}

// climb builds the rig, runs every rung on it and closes it.
func (l *ladder) climb(e env, dir string) error {
	ctx := l.ctx
	dep := core.NewDeployment()
	defer dep.Close()

	tab := newTable("ladder", e.catalog)
	keys := newKeyspace(tab, e.seed)
	rng := callerRand(e, 0)
	// The first ops of the seeded stream, present names only: every rung
	// replays the same ones.
	picks := make([]int, readOps)
	for i := range picks {
		picks[i] = keys.perm[keys.z.draw(rng)]
	}
	fresh := newTable("ladder-fresh", writeOps)

	if err := addRLIs(dep); err != nil {
		return err
	}
	mem, err := addLRC(ctx, dep, "lad-mem", tab)
	if err != nil {
		return err
	}
	if err := pushUpdates(ctx, mem, e.catalog); err != nil {
		return err
	}
	rliDB, _ := dep.Node("rli-db")
	rliBloom, _ := dep.Node("rli-bloom")
	if err := addSyntheticFilters(ctx, rliBloom, e.catalog); err != nil {
		return err
	}
	dur, durConns, err := addDurableLRC(ctx, dep, durableSpec("lad-dur", dir), tab)
	defer closeAll(durConns[:])
	if err != nil {
		return err
	}
	tier, router, err := addShards(ctx, dep)
	if err != nil {
		return err
	}
	defer router.Close()
	if err := preload(ctx, router, tab); err != nil {
		return err
	}

	if err := l.reads(dep, mem, dur, tab, picks); err != nil {
		return err
	}
	if err := l.writes(dep, dur, durConns[0], tab, fresh); err != nil {
		return err
	}
	if err := l.rliQueries(dep, rliDB, rliBloom, mem.URL, tab, picks); err != nil {
		return err
	}
	if err := l.routing(tier, router, tab, picks); err != nil {
		return err
	}
	if err := l.codecs(tab, picks); err != nil {
		return err
	}
	if err := l.softState(mem, rliDB, rliBloom, tab); err != nil {
		return err
	}
	if err := l.bloomAndRing(tab, tier.Ring); err != nil {
		return err
	}
	return l.checkpoints(dur, fresh)
}

func addSyntheticFilters(ctx context.Context, node *core.Node, n int) error {
	for j := 0; j < syntheticFilters; j++ {
		g := names{space: "synth" + strconv.Itoa(j)}
		f := bloom.New(n)
		for i := 0; i < n; i++ {
			f.Add(g.lfn(i))
		}
		payload, err := f.Bitmap().MarshalBinary()
		if err != nil {
			return err
		}
		if err := node.RLI.HandleBloom(ctx, "rls://synth-lrc"+strconv.Itoa(j), payload); err != nil {
			return err
		}
	}
	return nil
}

func scratchSchema() storage.Schema {
	return storage.Schema{
		Name: scratch,
		Columns: []storage.Column{
			{Name: "id", Kind: storage.KindInt},
			{Name: "name", Kind: storage.KindString},
			{Name: "ref", Kind: storage.KindInt},
		},
		Indexes: []storage.IndexSpec{
			{Name: "by_id", Columns: []string{"id"}, Unique: true},
			{Name: scratchIx, Columns: []string{"name"}, Unique: true},
		},
	}
}

func scratchInsert(eng *storage.Engine, id int64, name string) error {
	tx, err := eng.Begin(scratch)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if _, err := tx.Insert(scratch, storage.Row{storage.Int64(id), storage.String(name), storage.Int64(1)}); err != nil {
		return err
	}
	return tx.Commit()
}

func scratchDelete(eng *storage.Engine, name string) error {
	tx, err := eng.Begin(scratch)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	ids, _, err := tx.LookupIDs(scratch, scratchIx, storage.String(name))
	if err != nil {
		return err
	}
	for _, id := range ids {
		if _, err := tx.Delete(scratch, id); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// reads is the GetTargets ladder on the memory-only LRC, down to a scratch
// table of the same shape as t_lfn and a standalone B-tree with the same keys.
func (l *ladder) reads(dep *core.Deployment, mem, dur *core.Node, tab *table, picks []int) error {
	tcp, err := dep.DialTCP(mem.Name)
	if err != nil {
		return err
	}
	defer tcp.Close()
	pipe, err := dep.Dial(mem.Name)
	if err != nil {
		return err
	}
	defer pipe.Close()
	raw, err := dialRaw(mem)
	if err != nil {
		return err
	}
	defer raw.c.Close()

	eng := dur.LRCEngine
	if err := eng.CreateTable(scratchSchema()); err != nil {
		return err
	}
	eng.SetFlushOnCommit(false)
	for lo := 0; lo < len(tab.lfn); lo += preloadBatch {
		tx, err := eng.Begin(scratch)
		if err != nil {
			return err
		}
		for i := lo; i < min(lo+preloadBatch, len(tab.lfn)); i++ {
			if _, err := tx.Insert(scratch, storage.Row{storage.Int64(int64(i)), storage.String(tab.lfn[i]), storage.Int64(1)}); err != nil {
				_ = tx.Rollback() // the insert's error is the one to report
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	var tree btree.Tree
	for i, name := range tab.lfn {
		tree.Set([]byte(name), i)
	}
	treeKeys := make([][]byte, len(picks))
	for i, p := range picks {
		treeKeys[i] = []byte(tab.lfn[p])
	}

	n := len(picks)
	name := func(i int) string { return tab.lfn[picks[i%n]] }
	want := func(i int) string { return tab.pfn[picks[i%n]] }
	rawGet := func(i int) error {
		got, err := raw.names(wire.OpLRCGetTargets, name(i))
		return oneName(got, err, want(i))
	}
	pipeGet := func(i int) error {
		got, err := pipe.GetTargets(l.ctx, name(i))
		return oneName(got, err, want(i))
	}
	svcGet := func(i int) error {
		got, err := mem.LRC.GetTargets(l.ctx, name(i))
		return oneName(got, err, want(i))
	}
	t := l.climbTogether(n, []step{
		{name: "tcp.get", do: func(i int) error {
			got, err := tcp.GetTargets(l.ctx, name(i))
			return oneName(got, err, want(i))
		}},
		{name: "client.get", above: "tcp.get", do: pipeGet},
		{name: "server.get", above: "client.get", do: rawGet},
		{name: "lrc.get", above: "server.get", do: svcGet},
		{name: "rdb.get", above: "lrc.get", do: func(i int) error {
			got, err := mem.LRC.DB().GetTargets(name(i))
			return oneName(got, err, want(i))
		}},
		{name: "storage.read", above: "rdb.get", do: func(i int) error {
			return eng.SnapshotView(func(r *storage.Reader) error {
				rows, err := r.Lookup(scratch, scratchIx, storage.String(name(i)))
				if err == nil && len(rows) != 1 {
					err = fmt.Errorf("%d rows", len(rows))
				}
				return err
			})
		}},
	})
	btR := l.rung("btree.get", microOps, microRep, func(i int) error {
		if _, ok := tree.Get(treeKeys[i%n]); !ok {
			return errors.New("key missing")
		}
		return nil
	})
	pipeAllocs, _ := l.allocsOf(n, pipeGet)
	rawAllocs, _ := l.allocsOf(n, rawGet)
	svcAllocs, _ := l.allocsOf(n, svcGet)

	l.ns("client.get_ns", t.incl("tcp.get"))
	l.ns("tcp.get_self_ns", t.self("tcp.get", "client.get"))
	l.ns("client.get_self_ns", t.self("client.get", "server.get"))
	l.count("client.allocs_per_get", pipeAllocs-rawAllocs)
	l.ns("server.get_ns", t.incl("server.get"))
	l.ns("server.get_self_ns", t.self("server.get", "lrc.get"))
	l.count("server.allocs_per_get", rawAllocs-svcAllocs)
	l.ns("lrc.get_self_ns", t.self("lrc.get", "rdb.get"))
	l.ns("rdb.get_ns", t.incl("rdb.get"))
	l.ns("storage.read_ns", t.incl("storage.read"))
	l.ns("btree.get_ns", btR.ns)
	return l.err
}

// writes is the CreateMapping ladder on the durable LRC, with fresh names
// that every rung creates and the service (or the next rung) deletes again.
func (l *ladder) writes(dep *core.Deployment, dur *core.Node, tcp *client.Client, tab, fresh *table) error {
	pipe, err := dep.Dial(dur.Name)
	if err != nil {
		return err
	}
	defer pipe.Close()
	raw, err := dialRaw(dur)
	if err != nil {
		return err
	}
	defer raw.c.Close()
	eng := dur.LRCEngine
	eng.SetFlushOnCommit(false)
	defer eng.SetFlushOnCommit(true)

	n := len(fresh.lfn)
	db := dur.LRC.DB()
	base := int64(len(tab.lfn))
	svcDel := func(i int) error { return dur.LRC.DeleteMapping(l.ctx, fresh.lfn[i], fresh.pfn[i]) }
	dbAdd := func(i int) error { return db.CreateMapping(fresh.lfn[i], fresh.pfn[i]) }
	dbDel := func(i int) error { return db.DeleteMapping(fresh.lfn[i], fresh.pfn[i]) }
	txAdd := func(i int) error { return scratchInsert(eng, base+int64(i), fresh.lfn[i]) }
	txDel := func(i int) error { return scratchDelete(eng, fresh.lfn[i]) }
	t := l.climbTogether(n, []step{
		{name: "tcp.add", undo: svcDel, do: func(i int) error {
			return tcp.CreateMapping(l.ctx, fresh.lfn[i], fresh.pfn[i])
		}},
		{name: "client.add", above: "tcp.add", undo: svcDel, do: func(i int) error {
			return pipe.CreateMapping(l.ctx, fresh.lfn[i], fresh.pfn[i])
		}},
		{name: "server.add", above: "client.add", undo: svcDel, do: func(i int) error {
			_, err := raw.call(wire.OpLRCCreateMapping, (&wire.MappingRequest{Logical: fresh.lfn[i], Target: fresh.pfn[i]}).Encode())
			return err
		}},
		{name: "lrc.add", above: "server.add", do: func(i int) error {
			return dur.LRC.CreateMapping(l.ctx, fresh.lfn[i], fresh.pfn[i])
		}},
		{name: "lrc.del", do: svcDel},
		{name: "rdb.add", above: "lrc.add", do: dbAdd},
		{name: "rdb.del", above: "lrc.del", do: dbDel},
		{name: "storage.tx", above: "rdb.add", do: txAdd, undo: txDel},
	})
	_, dbBytes := l.allocsOf(n, dbAdd)
	l.each(n, dbDel)
	txAllocs, txBytes := l.allocsOf(n, txAdd)
	l.each(n, txDel)
	eng.SetFlushOnCommit(true)
	// A real fsync each; fewer samples keep the rung short.
	syncR := l.rung("storage.tx_sync", n/4, 1, txAdd)
	eng.SetFlushOnCommit(false)
	l.each(n/4, txDel)

	// Clone-then-Set is what a commit does to each index it touches.
	tree := &btree.Tree{}
	for i, name := range tab.lfn {
		tree.Set([]byte(name), i)
	}
	freshKeys := make([][]byte, n)
	for i := range freshKeys {
		freshKeys[i] = []byte(fresh.lfn[i])
	}
	setR := l.rung("btree.set", n, 1, func(i int) error {
		tree = tree.Clone()
		tree.Set(freshKeys[i], i)
		return nil
	})

	l.ns("tcp.add_self_ns", t.self("tcp.add", "client.add"))
	l.ns("client.add_self_ns", t.self("client.add", "server.add"))
	l.ns("server.add_self_ns", t.self("server.add", "lrc.add"))
	l.ns("lrc.add_self_ns", t.self("lrc.add", "rdb.add"))
	l.ns("lrc.del_self_ns", t.self("lrc.del", "rdb.del"))
	l.ns("rdb.add_ns", t.incl("rdb.add"))
	l.ns("rdb.del_ns", t.incl("rdb.del"))
	l.res.set("rdb.add_alloc_bytes", dbBytes, "B", "")
	l.ns("storage.tx_ns", t.incl("storage.tx"))
	l.ns("storage.tx_sync_ns", syncR.ns)
	l.count("storage.tx_allocs", txAllocs)
	l.res.set("storage.tx_alloc_bytes", txBytes, "B", "")
	l.ns("btree.set_ns", setR.ns)
	l.res.set("btree.set_alloc_bytes", setR.bytes, "B", "")
	return l.err
}

// rliQueries is the RLIQuery ladder on the database-backed RLI, plus the
// Bloom-only RLI's service method, which probes every filter it holds.
func (l *ladder) rliQueries(dep *core.Deployment, rliDB, rliBloom *core.Node, lrcURL string, tab *table, picks []int) error {
	pipe, err := dep.Dial(rliDB.Name)
	if err != nil {
		return err
	}
	defer pipe.Close()
	raw, err := dialRaw(rliDB)
	if err != nil {
		return err
	}
	defer raw.c.Close()
	n := len(picks)
	name := func(i int) string { return tab.lfn[picks[i%n]] }
	svcBloom := func(i int) error {
		got, err := rliBloom.RLI.QueryLRCs(l.ctx, name(i))
		if err == nil && !slices.Contains(got, lrcURL) {
			err = fmt.Errorf("false negative: %v", got)
		}
		return err
	}
	t := l.climbTogether(n, []step{
		{name: "client.rliq", do: func(i int) error {
			got, err := pipe.RLIQuery(l.ctx, name(i))
			return oneName(got, err, lrcURL)
		}},
		{name: "server.rliq", above: "client.rliq", do: func(i int) error {
			got, err := raw.names(wire.OpRLIGetLRCs, name(i))
			return oneName(got, err, lrcURL)
		}},
		{name: "rli.rliq_db", above: "server.rliq", do: func(i int) error {
			got, err := rliDB.RLI.QueryLRCs(l.ctx, name(i))
			return oneName(got, err, lrcURL)
		}},
		{name: "rdb.rliq", above: "rli.rliq_db", do: func(i int) error {
			got, err := rliDB.RLI.DB().QueryLRCs(name(i))
			return oneName(got, err, lrcURL)
		}},
		{name: "rli.rliq_bloom", do: svcBloom},
	})
	l.ns("client.rliq_self_ns", t.self("client.rliq", "server.rliq"))
	l.ns("rli.rliq_db_self_ns", t.self("rli.rliq_db", "rdb.rliq"))
	l.ns("rdb.rliq_ns", t.incl("rdb.rliq"))
	l.ns("rli.rliq_bloom_ns", t.incl("rli.rliq_bloom"))
	return l.err
}

// routing prices the Router against a plain Client on the owning shard, for
// one name and for a 1000-name bulk query split over the shards.
func (l *ladder) routing(tier *core.ShardTier, router *client.Router, tab *table, picks []int) error {
	direct := make([]*client.Client, len(tier.Nodes))
	for i, node := range tier.Nodes {
		c, err := client.Dial(l.ctx, client.Options{Addr: node.Addr()})
		if err != nil {
			closeAll(direct)
			return err
		}
		direct[i] = c
	}
	defer closeAll(direct)
	n := len(picks)
	name := func(i int) string { return tab.lfn[picks[i%n]] }
	want := func(i int) string { return tab.pfn[picks[i%n]] }
	t := l.climbTogether(n, []step{
		{name: "router.get", do: func(i int) error {
			got, err := router.GetTargets(l.ctx, name(i))
			return oneName(got, err, want(i))
		}},
		{name: "direct.get", above: "router.get", do: func(i int) error {
			got, err := direct[tier.Ring.OwnerIndex(name(i))].GetTargets(l.ctx, name(i))
			return oneName(got, err, want(i))
		}},
	})

	// Each sample builds its batch and its per-shard split inside the timed
	// call, on both rungs alike, so the difference cancels it.
	batch := make([]string, bulkGetSize)
	split := make([][]string, len(direct))
	fill := func(i int) {
		for s := range split {
			split[s] = split[s][:0]
		}
		for k := range batch {
			batch[k] = name(i*bulkGetSize + k)
			s := tier.Ring.OwnerIndex(batch[k])
			split[s] = append(split[s], batch[k])
		}
	}
	bulk := l.climbTogether(bulkOps, []step{
		{name: "router.bulk", do: func(i int) error {
			fill(i)
			res, err := router.BulkGetTargets(l.ctx, batch)
			if err == nil && len(res) != len(batch) {
				err = fmt.Errorf("%d results", len(res))
			}
			return err
		}},
		// The same sub-batches sent by hand, in parallel, with no merge back
		// into request order and no breaker.
		{name: "direct.bulk", above: "router.bulk", do: func(i int) error {
			fill(i)
			errs := make([]error, len(direct))
			var wg sync.WaitGroup
			for s := range direct {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					_, errs[s] = direct[s].BulkGetTargets(l.ctx, split[s])
				}(s)
			}
			wg.Wait()
			return errors.Join(errs...)
		}},
	})
	l.ns("client.router_get_self_ns", t.self("router.get", "direct.get"))
	l.res.set("client.bulk_split_merge_us", bulk.self("router.bulk", "direct.bulk")/1e3, "us", "per 1000-name BulkGetTargets")
	return l.err
}

// codecs times the wire messages alone: encode and decode of the request and
// of the response, envelope included, with no connection.
func (l *ladder) codecs(tab *table, picks []int) error {
	n := len(picks)
	var frameBytes int
	getR := l.rung("wire.get", microOps, microRep, func(i int) error {
		p := picks[i%n]
		req := (&wire.Request{ID: uint64(i), Op: wire.OpLRCGetTargets, Body: (&wire.NameRequest{Name: tab.lfn[p]}).Encode()}).Encode()
		r, err := wire.DecodeRequest(req)
		if err != nil {
			return err
		}
		if _, err := wire.DecodeNameRequest(r.Body); err != nil {
			return err
		}
		resp := (&wire.Response{ID: uint64(i), Body: (&wire.NamesResponse{Names: []string{tab.pfn[p]}}).Encode()}).Encode()
		rr, err := wire.DecodeResponse(resp)
		if err != nil {
			return err
		}
		_, err = wire.DecodeNamesResponse(rr.Body)
		frameBytes = len(req) + len(resp) + 8 // two 4-byte length prefixes
		return err
	})
	addR := l.rung("wire.add", microOps, microRep, func(i int) error {
		p := picks[i%n]
		req := (&wire.Request{ID: uint64(i), Op: wire.OpLRCCreateMapping,
			Body: (&wire.MappingRequest{Logical: tab.lfn[p], Target: tab.pfn[p]}).Encode()}).Encode()
		r, err := wire.DecodeRequest(req)
		if err != nil {
			return err
		}
		if _, err := wire.DecodeMappingRequest(r.Body); err != nil {
			return err
		}
		_, err = wire.DecodeResponse((&wire.Response{ID: uint64(i)}).Encode())
		return err
	})
	batch := make([]string, bulkGetSize)
	results := make([]wire.BulkNameResult, bulkGetSize)
	bulkR := l.rung("wire.bulk", bulkOps, 1, func(i int) error {
		for k := range batch {
			p := picks[(i*bulkGetSize+k)%n]
			batch[k] = tab.lfn[p]
			results[k] = wire.BulkNameResult{Name: tab.lfn[p], Found: true, Values: []string{tab.pfn[p]}}
		}
		if _, err := wire.DecodeBulkNamesRequest((&wire.BulkNamesRequest{Names: batch}).Encode()); err != nil {
			return err
		}
		_, err := wire.DecodeBulkNamesResponse((&wire.BulkNamesResponse{Results: results}).Encode())
		return err
	})
	l.ns("wire.get_codec_ns", getR.ns)
	l.count("wire.get_allocs", getR.allocs)
	l.res.set("wire.frame_bytes_per_get", float64(frameBytes), "B", "request + response frames")
	l.ns("wire.add_codec_ns", addR.ns)
	l.ns("wire.bulk_codec_ns_per_name", bulkR.ns/bulkGetSize)
	return l.err
}

// softState prices the pieces of a soft-state update: enumerating the names
// at the LRC, building its Bloom filter, and ingesting either form at an RLI.
func (l *ladder) softState(mem, rliDB, rliBloom *core.Node, tab *table) error {
	const reps = 5
	total := float64(len(tab.lfn))
	cursorR := l.rung("lrc.names_cursor", reps, 1, func(int) error {
		cur, err := mem.LRC.DB().OpenNamesCursor()
		if err != nil {
			return err
		}
		defer cur.Close()
		seen := 0
		for {
			page, err := cur.Next(5000)
			if err != nil {
				return err
			}
			if len(page) == 0 {
				break
			}
			seen += len(page)
		}
		if seen != len(tab.lfn) {
			return fmt.Errorf("cursor yielded %d names, want %d", seen, len(tab.lfn))
		}
		return nil
	})
	var builds []float64
	for i := 0; i < reps; i++ {
		d, err := mem.LRC.RebuildFilter(l.ctx)
		if err != nil {
			return err
		}
		builds = append(builds, float64(d)/1e6)
	}

	const scratchLRC = "rls://ladder-scratch-lrc"
	batches := make([][]string, 0, len(tab.lfn)/5000+1)
	for lo := 0; lo < len(tab.absent); lo += 5000 {
		batches = append(batches, tab.absent[lo:min(lo+5000, len(tab.absent))])
	}
	db := rliDB.RLI.DB()
	upsertR := l.rung("rdb.upsert", reps, 1, func(int) error {
		now := time.Now()
		for _, b := range batches {
			if err := db.UpsertNames(scratchLRC, b, now); err != nil {
				return err
			}
		}
		return nil
	})
	ingestR := l.rung("rli.ingest", reps, 1, func(int) error {
		if err := rliDB.RLI.HandleFullStart(l.ctx, scratchLRC, uint64(len(tab.absent))); err != nil {
			return err
		}
		for _, b := range batches {
			if err := rliDB.RLI.HandleFullBatch(l.ctx, scratchLRC, b); err != nil {
				return err
			}
		}
		return rliDB.RLI.HandleFullEnd(l.ctx, scratchLRC)
	})
	payload, err := mem.LRC.FilterSnapshot()
	if err != nil {
		return err
	}
	bloomR := l.rung("rli.bloom_ingest", 20, 1, func(int) error {
		return rliBloom.RLI.HandleBloom(l.ctx, scratchLRC, payload)
	})
	l.ns("lrc.names_cursor_ns_per_name", cursorR.ns/total)
	l.res.set("lrc.bloom_generate_ms", median(builds), "ms", "RebuildFilter, Table 3's one-time cost")
	l.ns("rdb.upsert_ns_per_name", upsertR.ns/total)
	l.ns("rli.ingest_ns_per_name", ingestR.ns/total)
	l.res.set("rli.bloom_ingest_ms", bloomR.ns/1e6, "ms", "")
	return l.err
}

// bloomAndRing times the two hash structures standing alone.
func (l *ladder) bloomAndRing(tab *table, rg *ring.Ring) error {
	n := len(tab.lfn)
	f := bloom.New(n)
	addR := l.rung("bloom.add", microOps, microRep, func(i int) error {
		f.Add(tab.lfn[i%n])
		return nil
	})
	for _, name := range tab.lfn {
		f.Add(name)
	}
	testR := l.rung("bloom.test", microOps, microRep, func(i int) error {
		if !f.Test(tab.lfn[i%n]) {
			return errors.New("false negative")
		}
		return nil
	})
	var payload []byte
	marshalR := l.rung("bloom.marshal", 20, 1, func(int) (err error) {
		payload, err = f.Bitmap().MarshalBinary()
		return err
	})
	unmarshalR := l.rung("bloom.unmarshal", 20, 1, func(int) error {
		var bm bloom.Bitmap
		return bm.UnmarshalBinary(payload)
	})
	hits := 0
	for _, name := range tab.absent {
		if f.Test(name) {
			hits++
		}
	}
	ownerR := l.rung("ring.owner", microOps, microRep, func(i int) error {
		rg.OwnerIndex(tab.lfn[i%n])
		return nil
	})
	l.ns("bloom.add_ns", addR.ns)
	l.ns("bloom.test_ns", testR.ns)
	l.res.set("bloom.marshal_ms", marshalR.ns/1e6, "ms", "")
	l.res.set("bloom.unmarshal_ms", unmarshalR.ns/1e6, "ms", "")
	l.res.set("bloom.fp_rate", float64(hits)/float64(len(tab.absent)), "ratio", fmt.Sprintf("%d absent names", len(tab.absent)))
	l.ns("ring.owner_ns", ownerR.ns)
	return l.err
}

// checkpoints times Engine.Checkpoint on the durable LRC, each after a burst
// of walTail writes, and leaves one more burst as the WAL tail for the
// recovery rung.
func (l *ladder) checkpoints(dur *core.Node, fresh *table) error {
	eng, db := dur.LRCEngine, dur.LRC.DB()
	eng.SetFlushOnCommit(false)
	burst := func() error {
		for i := 0; i < walTail/2; i++ {
			if err := db.CreateMapping(fresh.lfn[i], fresh.pfn[i]); err != nil {
				return err
			}
		}
		for i := 0; i < walTail/2; i++ {
			if err := db.DeleteMapping(fresh.lfn[i], fresh.pfn[i]); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		spans []span
		ms    []float64
	)
	for i := 0; i < 3; i++ {
		if err := burst(); err != nil {
			return err
		}
		t0 := time.Now()
		if err := eng.Checkpoint(); err != nil {
			return err
		}
		t1 := time.Now()
		spans = append(spans, span{name: "storage.checkpoint", id: int64(i), parent: l.root, start: l.tr.rel(t0), end: l.tr.rel(t1)})
		ms = append(ms, float64(t1.Sub(t0))/1e6)
	}
	l.tr.add(spans)
	l.res.set("storage.checkpoint_ms", median(ms), "ms", "snapshot write of the catalog")
	return burst()
}

// recovery reopens the durable LRC's storage directory: snapshot load plus
// replay of the WAL tail.
func (l *ladder) recovery(dir string) error {
	var opens []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		eng, err := storage.Open(dir, storage.Options{FlushOnCommit: true, Device: disk.New(disk.Fast())})
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(start))/1e6)
		if err := eng.Close(); err != nil {
			return err
		}
	}
	l.res.set("storage.recovery_ms", median(opens), "ms", fmt.Sprintf("snapshot + %d-write WAL tail", walTail))
	return nil
}
