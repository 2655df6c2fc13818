package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/netsim"
	"repro/internal/rdb"
	"repro/internal/storage"
	"repro/internal/wire"
)

// env is what a workload's set-up is given.
type env struct {
	catalog int    // mappings preloaded
	seed    int64  // fixes key order, op choice and absent names
	workdir string // where durable workloads put their data directories
}

// workload is one traffic mix against one deployment shape.
type workload struct {
	name string
	// satCallers saturate the CPU; lockCallers see unloaded service latency.
	satCallers, lockCallers int
	// tailQ is the highest quantile the traced run's lock-step phase has at
	// least ten samples beyond at the benchmark's run length.
	tailQ float64
	setup func(ctx context.Context, e env) (rig, error)
}

// rig is a preloaded deployment plus the generator's model of it.
type rig interface {
	deployment() *core.Deployment
	newCaller(i int) caller
	// finish compares the program's end state with the model; it returns
	// how many checks it made and how many failed.
	finish(ctx context.Context) (checks, failed int64, err error)
	close()
}

// The connection count is fixed at two per server on every machine; callers
// are multiplexed over them.
const conns = 2

var workloads = []workload{
	{name: "lrc-query", satCallers: 16 * conns, lockCallers: conns, tailQ: 0.99, setup: setupLRCQuery},
	{name: "lrc-churn", satCallers: 16 * conns, lockCallers: conns, tailQ: 0.99, setup: setupLRCChurn},
	{name: "rli-query", satCallers: 16 * conns, lockCallers: conns, tailQ: 0.99, setup: setupRLIQuery},
	{name: "ss-update", satCallers: 2, lockCallers: 1, tailQ: 0.90, setup: setupSSUpdate},
	{name: "shard-bulk", satCallers: 16 * conns, lockCallers: 1, tailQ: 0.95, setup: setupShardBulk},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// serverSpec is the part of every server's configuration the benchmark fixes:
// a TCP listener on loopback, and the simulated device and network off, so
// the numbers measure the program and not a Sleep.
func serverSpec(name string) core.ServerSpec {
	fast := disk.Fast()
	return core.ServerSpec{Name: name, Listen: true, Disk: &fast, Net: netsim.Unshaped(), Logger: quiet}
}

func callerRand(e env, i int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + int64(i) + 1))
}

const preloadBatch = 1000

type bulkCreator interface {
	BulkCreate(ctx context.Context, mappings []wire.Mapping) ([]wire.BulkFailure, error)
}

// preload registers the table through the public bulk API, as a site
// populating its catalog would.
func preload(ctx context.Context, c bulkCreator, tab *table) error {
	for lo := 0; lo < len(tab.lfn); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(tab.lfn))
		failures, err := c.BulkCreate(ctx, tab.mappings(lo, hi))
		if err != nil {
			return fmt.Errorf("preload [%d,%d): %w", lo, hi, err)
		}
		if len(failures) > 0 {
			return fmt.Errorf("preload [%d,%d): %d failures, first: %s", lo, hi, len(failures), failures[0].Msg)
		}
	}
	return nil
}

func dialBoth(dep *core.Deployment, name string) ([conns]*client.Client, error) {
	var out [conns]*client.Client
	for i := range out {
		c, err := dep.DialTCP(name)
		if err != nil {
			return out, err
		}
		out[i] = c
	}
	return out, nil
}

func closeAll(cs []*client.Client) {
	for _, c := range cs {
		if c != nil {
			_ = c.Close() // read-only use; nothing to lose on close
		}
	}
}

// checkTargets verifies a GetTargets answer for name index idx (-1: absent).
func checkTargets(tab *table, idx int, got []string, err error) error {
	if idx < 0 {
		if !errors.Is(err, client.ErrNotFound) {
			return fmt.Errorf("absent name: got %v, %v; want not-found", got, err)
		}
		return nil
	}
	if err != nil {
		return err
	}
	if len(got) != 1 || got[0] != tab.pfn[idx] {
		return fmt.Errorf("%s: got targets %v, want [%s]", tab.lfn[idx], got, tab.pfn[idx])
	}
	return nil
}

// ---- lrc-query ----

type lrcReader interface {
	GetTargets(ctx context.Context, logical string) ([]string, error)
}

type queryRig struct {
	e     env
	dep   *core.Deployment
	conns [conns]*client.Client
	keys  *keyspace
}

func setupLRCQuery(ctx context.Context, e env) (rig, error) {
	r := &queryRig{e: e, dep: core.NewDeployment(), keys: newKeyspace(newTable("query", e.catalog), e.seed)}
	spec := serverSpec("lrc0")
	spec.LRC = true
	if _, err := r.dep.AddServer(spec); err != nil {
		return nil, err
	}
	var err error
	if r.conns, err = dialBoth(r.dep, "lrc0"); err != nil {
		r.close()
		return nil, err
	}
	if err := preload(ctx, r.conns[0], r.keys.tab); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *queryRig) deployment() *core.Deployment { return r.dep }

func (r *queryRig) newCaller(i int) caller {
	return &getCaller{conn: r.conns[i%conns], keys: r.keys, rng: callerRand(r.e, i)}
}

func (r *queryRig) finish(context.Context) (int64, int64, error) { return 0, 0, nil }

func (r *queryRig) close() {
	closeAll(r.conns[:])
	r.dep.Close()
}

// getCaller issues GetTargets on Zipf keys with a share of absent names.
type getCaller struct {
	conn lrcReader
	keys *keyspace
	rng  *rand.Rand

	name string
	idx  int
	got  []string
	err  error
}

func (c *getCaller) prepare()                 { c.name, c.idx = c.keys.pick(c.rng) }
func (c *getCaller) exec(ctx context.Context) { c.got, c.err = c.conn.GetTargets(ctx, c.name) }
func (c *getCaller) verify() error            { return checkTargets(c.keys.tab, c.idx, c.got, c.err) }

// ---- lrc-churn ----

type lrcConn interface {
	lrcReader
	CreateMapping(ctx context.Context, logical, target string) error
	DeleteMapping(ctx context.Context, logical, target string) error
}

// checkpointEvery acknowledged writes, a checkpoint is asked for. The trigger
// is a count and not a timer, so how many checkpoints a run holds follows the
// work done and not the clock; the checkpoint itself runs beside the callers,
// and a trigger that finds one still queued is dropped, so the WAL tail the
// reopen replays is bounded by about two intervals, not fixed.
const checkpointEvery = 5000

type churnRig struct {
	e     env
	dep   *core.Deployment
	spec  core.ServerSpec
	conns [conns]*client.Client
	keys  *keyspace
	eng   *storage.Engine

	writes   atomic.Int64
	ckpt     chan struct{}
	ckptDone chan error
	callers  []*churnCaller
}

// durableSpec is an LRC with real WAL files, a real fsync per commit (group
// commit on) and the pipelined serve loop.
func durableSpec(name, dir string) core.ServerSpec {
	spec := serverSpec(name)
	spec.LRC = true
	spec.DataDir = dir
	spec.FlushOnCommit = true
	spec.MaxInFlight = 16
	return spec
}

// addDurableLRC starts the server and preloads it over TCP. A site loads its
// catalog with the per-commit flush off and turns it on for service; the load
// is made durable by one checkpoint.
func addDurableLRC(ctx context.Context, dep *core.Deployment, spec core.ServerSpec, tab *table) (*core.Node, [conns]*client.Client, error) {
	node, err := dep.AddServer(spec)
	if err != nil {
		return nil, [conns]*client.Client{}, err
	}
	cs, err := dialBoth(dep, spec.Name)
	if err != nil {
		return nil, cs, err
	}
	node.LRCEngine.SetFlushOnCommit(false)
	if err := preload(ctx, cs[0], tab); err != nil {
		return nil, cs, err
	}
	if err := node.LRCEngine.Checkpoint(); err != nil {
		return nil, cs, err
	}
	node.LRCEngine.SetFlushOnCommit(true)
	return node, cs, nil
}

func setupLRCChurn(ctx context.Context, e env) (rig, error) {
	dir, err := os.MkdirTemp(e.workdir, "churn-")
	if err != nil {
		return nil, err
	}
	r := &churnRig{e: e, dep: core.NewDeployment(), spec: durableSpec("lrc0", dir),
		keys: newKeyspace(newTable("churn", e.catalog), e.seed)}
	node, cs, err := addDurableLRC(ctx, r.dep, r.spec, r.keys.tab)
	r.conns = cs
	if err != nil {
		r.close()
		return nil, err
	}
	r.eng = node.LRCEngine

	ckpt := make(chan struct{}, 1)
	r.ckpt, r.ckptDone = ckpt, make(chan error, 1)
	go func() {
		var first error
		for range ckpt {
			if err := r.eng.Checkpoint(); err != nil && first == nil {
				first = err
			}
		}
		r.ckptDone <- first
	}()
	return r, nil
}

func (r *churnRig) deployment() *core.Deployment { return r.dep }

func (r *churnRig) newCaller(i int) caller {
	c := &churnCaller{rig: r, conn: r.conns[i%conns], id: i, rng: callerRand(r.e, i)}
	r.callers = append(r.callers, c)
	return c
}

func (r *churnRig) noteWrite() {
	if r.writes.Add(1)%checkpointEvery == 0 {
		select {
		case r.ckpt <- struct{}{}:
		default: // a checkpoint is already queued
		}
	}
}

// finish closes the deployment, reopens the data directory and checks that
// the catalog holds exactly the acknowledged creates minus the acknowledged
// deletes.
func (r *churnRig) finish(ctx context.Context) (checks, failed int64, err error) {
	if err := r.stopCheckpoints(); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: %w", err)
	}
	closeAll(r.conns[:])
	r.conns = [conns]*client.Client{}
	r.dep.Close()
	r.dep = core.NewDeployment()
	node, err := r.dep.AddServer(r.spec)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	want := int64(r.e.catalog)
	for _, c := range r.callers {
		want += int64(c.next - c.head)
		for seq := 0; seq < c.next; seq++ {
			lfn, pfn := c.names(seq)
			got, err := node.LRC.GetTargets(ctx, lfn)
			checks++
			switch {
			case seq < c.head && !errors.Is(err, rdb.ErrNotFound):
				failed++
			case seq >= c.head && (err != nil || len(got) != 1 || got[0] != pfn):
				failed++
			}
		}
	}
	logicals, _, _, err := node.LRC.DB().Counts()
	if err != nil {
		return checks, failed, err
	}
	checks++
	if logicals != want {
		failed++
	}
	return checks, failed, nil
}

// stopCheckpoints ends the checkpointer and returns its first error. Later
// calls do nothing.
func (r *churnRig) stopCheckpoints() error {
	if r.ckpt == nil {
		return nil
	}
	close(r.ckpt)
	r.ckpt = nil
	return <-r.ckptDone
}

func (r *churnRig) close() {
	_ = r.stopCheckpoints() // finish reports it; here the rig is being dropped
	closeAll(r.conns[:])
	r.dep.Close()
	_ = os.RemoveAll(r.spec.DataDir) // scratch data under the work directory; a leftover is harmless
}

type opKind uint8

const (
	opGet opKind = iota
	opCreate
	opDelete
)

// churnCaller creates fresh keys of its own, deletes its oldest, and reads
// the preloaded catalog. Its live keys are the sequence numbers [head, next).
type churnCaller struct {
	rig  *churnRig
	conn lrcConn
	id   int
	rng  *rand.Rand

	head, next int

	op       opKind
	lfn, pfn string
	idx      int
	got      []string
	err      error
}

func (c *churnCaller) names(seq int) (lfn, pfn string) {
	tail := strconv.Itoa(c.id) + "-" + strconv.Itoa(seq)
	return "lfn://churn-own/c" + tail, "gsiftp://site0.example.org/churn-own/c" + tail
}

func (c *churnCaller) prepare() {
	switch x := c.rng.Float64(); {
	case x < 0.4 || (x < 0.8 && c.head == c.next):
		c.op = opCreate
		c.lfn, c.pfn = c.names(c.next)
	case x < 0.8:
		c.op = opDelete
		c.lfn, c.pfn = c.names(c.head)
	default:
		c.op = opGet
		c.lfn, c.idx = c.rig.keys.pick(c.rng)
	}
}

func (c *churnCaller) exec(ctx context.Context) {
	switch c.op {
	case opCreate:
		c.err = c.conn.CreateMapping(ctx, c.lfn, c.pfn)
	case opDelete:
		c.err = c.conn.DeleteMapping(ctx, c.lfn, c.pfn)
	default:
		c.got, c.err = c.conn.GetTargets(ctx, c.lfn)
	}
}

func (c *churnCaller) verify() error {
	switch c.op {
	case opCreate:
		c.next++ // the key is spent whether or not the create was acknowledged
		if c.err == nil {
			c.rig.noteWrite()
		}
		return c.err
	case opDelete:
		c.head++
		if c.err == nil {
			c.rig.noteWrite()
		}
		return c.err
	default:
		return checkTargets(c.rig.keys.tab, c.idx, c.got, c.err)
	}
}

// ---- rli-query ----

type rliReader interface {
	RLIQuery(ctx context.Context, logical string) ([]string, error)
}

// syntheticFilters is how many other LRCs' Bloom filters the Bloom-only RLI
// holds, so a query probes 50.
const syntheticFilters = 49

type rliRig struct {
	e      env
	dep    *core.Deployment
	conns  [2]*client.Client // [0] rli-db, [1] rli-bloom
	keys   *keyspace
	lrcURL string
}

// addRLIs adds the two index flavours of the paper: one fed uncompressed
// updates into its database, one fed Bloom filters only.
func addRLIs(dep *core.Deployment) error {
	for _, name := range []string{"rli-db", "rli-bloom"} {
		spec := serverSpec(name)
		spec.RLI = true
		if _, err := dep.AddServer(spec); err != nil {
			return err
		}
	}
	return nil
}

// addLRC adds a memory-only LRC, preloads it over TCP and wires it to both RLIs.
func addLRC(ctx context.Context, dep *core.Deployment, name string, tab *table) (*core.Node, error) {
	spec := serverSpec(name)
	spec.LRC = true
	node, err := dep.AddServer(spec)
	if err != nil {
		return nil, err
	}
	c, err := dep.DialTCP(name)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := preload(ctx, c, tab); err != nil {
		return nil, err
	}
	if err := dep.Connect(name, "rli-db", false); err != nil {
		return nil, err
	}
	return node, dep.Connect(name, "rli-bloom", true)
}

// pushUpdates sends one full and one Bloom update and checks both arrived.
func pushUpdates(ctx context.Context, node *core.Node, wantNames int) error {
	for _, url := range []string{"rls://rli-db", "rls://rli-bloom"} {
		res, err := node.LRC.ForceUpdateTo(ctx, url)
		if err == nil {
			err = res.Err
		}
		if err != nil {
			return fmt.Errorf("%s update to %s: %w", res.Kind, url, err)
		}
		if res.Kind == "full" && res.Names != wantNames {
			return fmt.Errorf("full update to %s carried %d names, want %d", url, res.Names, wantNames)
		}
		if res.Kind == "bloom" && res.Bytes == 0 {
			return fmt.Errorf("bloom update to %s carried no bytes", url)
		}
	}
	return nil
}

func setupRLIQuery(ctx context.Context, e env) (rig, error) {
	r := &rliRig{e: e, dep: core.NewDeployment(), keys: newKeyspace(newTable("rliq", e.catalog), e.seed)}
	fail := func(err error) (rig, error) {
		r.close()
		return nil, err
	}
	if err := addRLIs(r.dep); err != nil {
		return fail(err)
	}
	node, err := addLRC(ctx, r.dep, "lrc0", r.keys.tab)
	if err != nil {
		return fail(err)
	}
	r.lrcURL = node.URL
	if err := pushUpdates(ctx, node, e.catalog); err != nil {
		return fail(err)
	}
	bloomNode, _ := r.dep.Node("rli-bloom")
	if err := addSyntheticFilters(ctx, bloomNode, e.catalog); err != nil {
		return fail(err)
	}
	for i, name := range []string{"rli-db", "rli-bloom"} {
		if r.conns[i], err = r.dep.DialTCP(name); err != nil {
			return fail(err)
		}
	}
	return r, nil
}

func (r *rliRig) deployment() *core.Deployment { return r.dep }

func (r *rliRig) newCaller(i int) caller {
	return &rliCaller{rig: r, conns: [2]rliReader{r.conns[0], r.conns[1]}, rng: callerRand(r.e, i)}
}

func (r *rliRig) finish(context.Context) (int64, int64, error) { return 0, 0, nil }

func (r *rliRig) close() {
	closeAll(r.conns[:])
	r.dep.Close()
}

// rliCaller asks either RLI, half the time each, which LRCs hold a name.
type rliCaller struct {
	rig   *rliRig
	conns [2]rliReader
	rng   *rand.Rand

	bloom bool
	name  string
	idx   int
	got   []string
	err   error
}

func (c *rliCaller) prepare() {
	c.bloom = c.rng.Intn(2) == 1
	c.name, c.idx = c.rig.keys.pick(c.rng)
}

func (c *rliCaller) exec(ctx context.Context) {
	which := 0
	if c.bloom {
		which = 1
	}
	c.got, c.err = c.conns[which].RLIQuery(ctx, c.name)
}

func (c *rliCaller) verify() error {
	notFound := errors.Is(c.err, client.ErrNotFound)
	if c.err != nil && !notFound {
		return c.err
	}
	switch {
	case c.idx < 0 && c.bloom:
		// A Bloom answer for an absent name may be a false positive.
		return nil
	case c.idx < 0:
		if !notFound {
			return fmt.Errorf("absent name: rli-db answered %v", c.got)
		}
		return nil
	case c.bloom:
		// Other filters may add false positives, but the registering LRC
		// must be there: a Bloom filter has no false negatives.
		if !slices.Contains(c.got, c.rig.lrcURL) {
			return fmt.Errorf("%s: rli-bloom answered %v without %s", c.name, c.got, c.rig.lrcURL)
		}
		return nil
	default:
		if len(c.got) != 1 || c.got[0] != c.rig.lrcURL {
			return fmt.Errorf("%s: rli-db answered %v, want [%s]", c.name, c.got, c.rig.lrcURL)
		}
		return nil
	}
}

// ---- ss-update ----

type ssRig struct {
	e     env
	dep   *core.Deployment
	nodes []*core.Node // the LRCs, one per caller
	tabs  []*table
}

func setupSSUpdate(ctx context.Context, e env) (rig, error) {
	r := &ssRig{e: e, dep: core.NewDeployment()}
	if err := addRLIs(r.dep); err != nil {
		r.close()
		return nil, err
	}
	for _, name := range []string{"lrc-a", "lrc-b"} {
		tab := newTable("ss-"+name, e.catalog/2)
		node, err := addLRC(ctx, r.dep, name, tab)
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes, r.tabs = append(r.nodes, node), append(r.tabs, tab)
	}
	return r, nil
}

func (r *ssRig) deployment() *core.Deployment { return r.dep }

func (r *ssRig) newCaller(i int) caller {
	return &ssCaller{node: r.nodes[i], want: len(r.tabs[i].lfn)}
}

// finish checks that both RLIs ended up knowing every name of every LRC.
func (r *ssRig) finish(ctx context.Context) (checks, failed int64, err error) {
	dbNode, _ := r.dep.Node("rli-db")
	bloomNode, _ := r.dep.Node("rli-bloom")
	logicals, lrcs, _, err := dbNode.RLI.Counts(ctx)
	if err != nil {
		return 0, 0, err
	}
	checks++
	if want := int64(len(r.nodes) * (r.e.catalog / 2)); logicals != want || lrcs != int64(len(r.nodes)) {
		failed++
	}
	rng := callerRand(r.e, 0)
	for i, node := range r.nodes {
		for k := 0; k < 500; k++ {
			name := r.tabs[i].lfn[rng.Intn(len(r.tabs[i].lfn))]
			checks += 2
			if got, err := dbNode.RLI.QueryLRCs(ctx, name); err != nil || len(got) != 1 || got[0] != node.URL {
				failed++
			}
			got, _ := bloomNode.RLI.QueryLRCs(ctx, name)
			if !slices.Contains(got, node.URL) {
				failed++
			}
		}
	}
	return checks, failed, nil
}

func (r *ssRig) close() { r.dep.Close() }

// ssCaller is one LRC's update scheduler: an op is one soft-state round, an
// uncompressed full update to rli-db followed by a Bloom update to rli-bloom.
type ssCaller struct {
	node *core.Node
	want int
	err  error
}

func (c *ssCaller) prepare()                 {}
func (c *ssCaller) exec(ctx context.Context) { c.err = pushUpdates(ctx, c.node, c.want) }
func (c *ssCaller) verify() error            { return c.err }

// ---- shard-bulk ----

type bulkConn interface {
	bulkCreator
	BulkDelete(ctx context.Context, mappings []wire.Mapping) ([]wire.BulkFailure, error)
	BulkGetTargets(ctx context.Context, names []string) ([]wire.BulkNameResult, error)
}

const (
	shards       = 4
	bulkGetSize  = 1000 // Fig. 11's request size
	bulkEditSize = 200
)

type shardRig struct {
	e      env
	dep    *core.Deployment
	tier   *core.ShardTier
	router *client.Router
	keys   *keyspace

	callers []*bulkCaller
}

func setupShardBulk(ctx context.Context, e env) (rig, error) {
	r := &shardRig{e: e, dep: core.NewDeployment(), keys: newKeyspace(newTable("bulk", e.catalog), e.seed)}
	var err error
	if r.tier, r.router, err = addShards(ctx, r.dep); err != nil {
		r.close()
		return nil, err
	}
	if err := preload(ctx, r.router, r.keys.tab); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// addShards starts the shard tier and a Router to it over TCP, with the same
// two connections per server the other workloads use.
func addShards(ctx context.Context, dep *core.Deployment) (*core.ShardTier, *client.Router, error) {
	tier, err := dep.AddShardedLRCs(core.ShardedLRCSpec{Shards: shards, Base: serverSpec("")})
	if err != nil {
		return nil, nil, err
	}
	specs := make([]client.ShardSpec, len(tier.Nodes))
	for i, n := range tier.Nodes {
		specs[i] = client.ShardSpec{Name: tier.Names[i], Opts: client.Options{Addr: n.Addr()}}
	}
	router, err := client.NewRouter(ctx, client.RouterOptions{Shards: specs, PoolSize: conns, VNodes: tier.Ring.VNodes()})
	return tier, router, err
}

func (r *shardRig) deployment() *core.Deployment { return r.dep }

func (r *shardRig) newCaller(i int) caller {
	c := &bulkCaller{rig: r, conn: r.router, id: i, rng: callerRand(r.e, i),
		names: make([]string, bulkGetSize), idxs: make([]int, bulkGetSize)}
	r.callers = append(r.callers, c)
	return c
}

// finish checks that the shards together hold the preloaded catalog plus
// every caller's live batches.
func (r *shardRig) finish(context.Context) (checks, failed int64, err error) {
	want := int64(r.e.catalog)
	for _, c := range r.callers {
		want += int64(c.next-c.head) * bulkEditSize
	}
	var have int64
	for _, n := range r.tier.Nodes {
		logicals, _, _, err := n.LRC.DB().Counts()
		if err != nil {
			return 0, 0, err
		}
		have += logicals
	}
	if have != want {
		failed = 1
	}
	return 1, failed, nil
}

func (r *shardRig) close() {
	if r.router != nil {
		_ = r.router.Close() // nothing buffered client-side
	}
	r.dep.Close()
}

// bulkCaller reads 1000 names at a time and creates and deletes batches of
// 200 of its own, in the order of bulkCycle. Its live batches are the numbers [head, next).
type bulkCaller struct {
	rig  *shardRig
	conn bulkConn
	id   int
	rng  *rand.Rand

	head, next int
	seq        int

	op       opKind
	names    []string
	idxs     []int
	batch    []wire.Mapping
	res      []wire.BulkNameResult
	failures []wire.BulkFailure
	err      error
}

func (c *bulkCaller) fillBatch(b int) {
	c.batch = c.batch[:0]
	prefix := "bulk-own/c" + strconv.Itoa(c.id) + "-" + strconv.Itoa(b) + "-"
	for i := 0; i < bulkEditSize; i++ {
		tail := prefix + strconv.Itoa(i)
		c.batch = append(c.batch, wire.Mapping{Logical: "lfn://" + tail, Target: "gsiftp://site0.example.org/" + tail})
	}
}

// bulkCycle is the op mix: two thirds gets, a sixth creates, a sixth deletes.
// A phase holds under a thousand of these ops and an edit costs several times
// a get, so the mix is a fixed cycle and not drawn (a drawn mix would move the
// throughput by its own sampling noise), and gets are a clear majority (at one
// half the median would sit on the gap between the two modes).
var bulkCycle = [...]opKind{opGet, opGet, opCreate, opGet, opGet, opDelete}

func (c *bulkCaller) prepare() {
	c.op = bulkCycle[(c.id+c.seq)%len(bulkCycle)]
	c.seq++
	if c.op == opDelete && c.head == c.next {
		c.op = opCreate
	}
	switch c.op {
	case opCreate:
		c.fillBatch(c.next)
	case opDelete:
		c.fillBatch(c.head)
	default:
		for i := range c.names {
			c.names[i], c.idxs[i] = c.rig.keys.pick(c.rng)
		}
	}
}

func (c *bulkCaller) exec(ctx context.Context) {
	switch c.op {
	case opCreate:
		c.failures, c.err = c.conn.BulkCreate(ctx, c.batch)
	case opDelete:
		c.failures, c.err = c.conn.BulkDelete(ctx, c.batch)
	default:
		c.res, c.err = c.conn.BulkGetTargets(ctx, c.names)
	}
}

func (c *bulkCaller) verify() error {
	if c.op == opCreate {
		c.next++
	} else if c.op == opDelete {
		c.head++
	}
	if c.err != nil {
		return c.err
	}
	if c.op != opGet {
		if len(c.failures) > 0 {
			return fmt.Errorf("bulk edit: %d of %d failed, first: %s", len(c.failures), len(c.batch), c.failures[0].Msg)
		}
		return nil
	}
	if len(c.res) != len(c.names) {
		return fmt.Errorf("bulk get: %d results for %d names", len(c.res), len(c.names))
	}
	tab := c.rig.keys.tab
	for i, res := range c.res {
		idx := c.idxs[i]
		switch {
		case res.Name != c.names[i]:
			return fmt.Errorf("bulk get: result %d is %q, want %q (request order)", i, res.Name, c.names[i])
		case idx < 0 && res.Found:
			return fmt.Errorf("bulk get: absent name %q found", res.Name)
		case idx >= 0 && (!res.Found || len(res.Values) != 1 || res.Values[0] != tab.pfn[idx]):
			return fmt.Errorf("bulk get: %q got %v, want [%s]", res.Name, res.Values, tab.pfn[idx])
		}
	}
	return nil
}
