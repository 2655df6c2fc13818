package harness

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// scen-rli-failover is the replicated-RLI chaos scenario: one logical index
// served by a 2-replica group discovered at runtime through the seed-node
// membership service, an open-loop query load running through the
// breaker-steered failover client, one replica killed mid-run, and a warm
// standby bootstrapped from the surviving peer's Bloom snapshot.
//
// The acceptance contract (§5.5's availability story, extended to a
// replicated index tier):
//
//   - killing one of two replicas keeps query success >= 99% (stale answers
//     allowed) — the failover client steers around the corpse;
//   - the registry expires the dead replica's lease, the view generation
//     advances, and the LRC stops updating the corpse;
//   - a fresh standby that joins the group answers queries within
//     failoverStandbyBudget of joining, via the peer-snapshot bootstrap plus
//     the LRC's next update — not after a full soft-state cycle.
func init() {
	register(Experiment{
		ID:    "scen-rli-failover",
		Title: "Replicated RLI: runtime membership, breaker-steered failover, warm-standby bootstrap",
		Paper: "beyond the paper: kill 1 of 2 RLI replicas under open-loop query load; success >= 99%, standby serves within seconds of joining",
		Run:   runRLIFailover,
	})
}

const (
	// failoverTTL is the member lease: a replica that misses heartbeats for
	// this long is expired and dropped from the view.
	failoverTTL = 1200 * time.Millisecond
	// failoverStandbyBudget bounds join -> first answered query on a fresh
	// standby.
	failoverStandbyBudget = 5 * time.Second
	// failoverGroup is the replica group name in member records.
	failoverGroup = "rli-group-a"
)

// failoverConn adapts the replica-failover client to the open-loop engine's
// query-only Conn surface; the scenario mixes are pure queries, so the write
// methods never run.
type failoverConn struct{ fo *client.Failover }

func (c failoverConn) Ping(ctx context.Context) error { return c.fo.Ping(ctx) }
func (c failoverConn) GetTargets(ctx context.Context, logical string) ([]string, error) {
	return c.fo.RLIQuery(ctx, logical)
}
func (c failoverConn) CreateMapping(ctx context.Context, logical, target string) error {
	return errors.New("harness: failover conn is query-only")
}
func (c failoverConn) DeleteMapping(ctx context.Context, logical, target string) error {
	return errors.New("harness: failover conn is query-only")
}
func (c failoverConn) BulkCreate(ctx context.Context, mappings []wire.Mapping) ([]wire.BulkFailure, error) {
	return nil, errors.New("harness: failover conn is query-only")
}
func (c failoverConn) Close() error { return c.fo.Close() }

// gatedMember simulates a node crash for the membership agent: once dead,
// every seed RPC fails at the transport level, so heartbeats stop and the
// lease runs out exactly as if the process had died.
type gatedMember struct {
	dead  *atomic.Bool
	inner membership.MemberClient
}

func (g *gatedMember) check() error {
	if g.dead.Load() {
		return errors.New("node down")
	}
	return nil
}

func (g *gatedMember) MemberJoin(ctx context.Context, m wire.MemberInfo) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.inner.MemberJoin(ctx, m)
}

func (g *gatedMember) MemberLeave(ctx context.Context, name string) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.inner.MemberLeave(ctx, name)
}

func (g *gatedMember) MemberHeartbeat(ctx context.Context, name string) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.inner.MemberHeartbeat(ctx, name)
}

func (g *gatedMember) MemberView(ctx context.Context, since uint64) (*wire.MemberViewResponse, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.inner.MemberView(ctx, since)
}

func (g *gatedMember) Close() error { return g.inner.Close() }

func runRLIFailover(p Params) error {
	ctx := context.Background()

	// ---- Deployment: seed + 2-replica RLI group + one Bloom LRC ----
	reg := membership.NewRegistry(membership.RegistryConfig{
		TTL:           failoverTTL,
		SweepInterval: 200 * time.Millisecond,
	})
	reg.Start()
	defer reg.Close()

	dep := core.NewDeployment()
	defer dep.Close()
	if _, err := dep.AddServer(core.ServerSpec{Name: "seed", Members: reg, Disk: fastDisk()}); err != nil {
		return err
	}
	faultsA := netsim.NewFaults(netsim.FaultsConfig{Seed: 11})
	replicaSpec := func(name string, faults *netsim.Faults) core.ServerSpec {
		return core.ServerSpec{
			Name:   name,
			RLI:    true,
			Disk:   fastDisk(),
			Faults: faults,
			// Generous timeout, parked expire thread: the scenario's staleness
			// comes from the kill, not a background sweep racing the phases.
			RLITimeout:        time.Minute,
			RLIExpireInterval: time.Hour,
		}
	}
	if _, err := dep.AddServer(replicaSpec("rli-a", faultsA)); err != nil {
		return err
	}
	if _, err := dep.AddServer(replicaSpec("rli-b", nil)); err != nil {
		return err
	}
	lrcNode, err := dep.AddServer(core.ServerSpec{
		Name: "lrc0",
		LRC:  true,
		Disk: fastDisk(),
		// Fast probe schedule so the LRC's own updater breaker detects the
		// kill and the heal-side probes stay inside the scenario window.
		SSBackoff:     backoff.Policy{Base: 100 * time.Millisecond, Max: 300 * time.Millisecond},
		SSBreakerSeed: 42,
	})
	if err != nil {
		return err
	}

	// ---- Membership agents: replicas register, the LRC follows the view ----
	deadA := &atomic.Bool{}
	memberDial := func(dead *atomic.Bool) func(ctx context.Context, url string) (membership.MemberClient, error) {
		return func(_ context.Context, url string) (membership.MemberClient, error) {
			link := dep.Peer(url, 0)
			if dead == nil {
				return link, nil
			}
			return &gatedMember{dead: dead, inner: link}, nil
		}
	}
	newRLIAgent := func(name string, dead *atomic.Bool) (*membership.Agent, error) {
		a, err := membership.NewAgent(membership.AgentConfig{
			Self:              wire.MemberInfo{Name: name, URL: "rls://" + name, Roles: []string{"rli"}, Group: failoverGroup},
			Seeds:             []string{"rls://seed"},
			Dial:              memberDial(dead),
			HeartbeatInterval: 200 * time.Millisecond,
			PullInterval:      300 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		return a, a.Start(ctx)
	}
	agentA, err := newRLIAgent("rli-a", deadA)
	if err != nil {
		return err
	}
	defer agentA.Close()
	agentB, err := newRLIAgent("rli-b", nil)
	if err != nil {
		return err
	}
	defer agentB.Close()

	lrcAgent, err := membership.NewAgent(membership.AgentConfig{
		Self:              wire.MemberInfo{Name: "lrc0", URL: lrcNode.URL, Roles: []string{"lrc"}},
		Seeds:             []string{"rls://seed"},
		Dial:              memberDial(nil),
		HeartbeatInterval: 200 * time.Millisecond,
		PullInterval:      200 * time.Millisecond,
		OnView:            membership.RLIGroupSync(lrcNode.LRC, failoverGroup, true, nil),
	})
	if err != nil {
		return err
	}
	if err := lrcAgent.Start(ctx); err != nil {
		return err
	}
	defer lrcAgent.Close()
	lrcAgent.PullNow()
	if targets, err := lrcNode.LRC.ListRLITargets(ctx); err != nil || len(targets) != 2 {
		return fmt.Errorf("scen-rli-failover: runtime discovery installed %d targets (err %v), want 2", len(targets), err)
	}

	// ---- Preload and replicate ----
	n := p.size(500_000)
	gen := workload.Names{Space: "rlifailover"}
	lc, err := dep.Dial("lrc0")
	if err != nil {
		return err
	}
	err = workload.Load(ctx, lc, gen, n, 1000)
	lc.Close()
	if err != nil {
		return err
	}
	for _, res := range lrcNode.LRC.ForceUpdate(ctx) {
		if res.Err != nil {
			return fmt.Errorf("scen-rli-failover: replicate to %s: %w", res.URL, res.Err)
		}
	}

	depth := scenarioDepth(p)
	cfg := workload.ScenarioConfig{
		Gen:     gen,
		Catalog: n,
		Clients: scenarioClients,
		Conns:   2,
		Depth:   depth,
		Seed:    11,
		Dial: func() (workload.Conn, error) {
			fo, err := dep.DialFailover("rli-a", "rli-b")
			if err != nil {
				return nil, err
			}
			return failoverConn{fo: fo}, nil
		},
	}

	// ---- Phase 1: baseline with both replicas up ----
	base := workload.SteadyState(1200*p.Ops, 700*time.Millisecond, 0.9)
	base.Name = "rli-failover-baseline"
	baseRes, err := workload.RunScenario(ctx, base, cfg)
	if err != nil {
		return fmt.Errorf("scen-rli-failover baseline: %w", err)
	}
	if errs := baseRes[0].Result.Errors; errs != 0 {
		return fmt.Errorf("scen-rli-failover: %d baseline errors with both replicas up", errs)
	}

	// ---- Phase 2: kill rli-a under load ----
	// The crash is total: the replica's links reset on every write and its
	// membership heartbeats stop, so the only paths to an answer are the
	// failover client steering to rli-b and, shortly, the view expiring the
	// corpse.
	deadA.Store(true)
	faultsA.SetScript(netsim.FaultScript{DropProb: 1})
	faultsA.ResetAll()

	kill := workload.SteadyState(1200*p.Ops, 1500*time.Millisecond, 0.9)
	kill.Name = "rli-failover-kill"
	killRes, err := workload.RunScenario(ctx, kill, cfg)
	if err != nil {
		return fmt.Errorf("scen-rli-failover kill phase: %w", err)
	}
	kr := killRes[0].Result
	if kr.Issued == 0 {
		return errors.New("scen-rli-failover: kill phase issued no queries")
	}
	successPct := 100 * float64(kr.Issued-kr.Errors) / float64(kr.Issued)
	if successPct < 99 {
		return fmt.Errorf("scen-rli-failover: query success %.2f%% during replica kill, want >= 99%% (%d/%d failed)",
			successPct, kr.Errors, kr.Issued)
	}

	// ---- Expiry: the view drops the corpse, the LRC stops updating it ----
	expiryDeadline := clk.Now().Add(4 * failoverTTL)
	for {
		targets, err := lrcNode.LRC.ListRLITargets(ctx)
		if err != nil {
			return err
		}
		if len(targets) == 1 && targets[0].URL == "rls://rli-b" {
			break
		}
		if clk.Now().After(expiryDeadline) {
			return fmt.Errorf("scen-rli-failover: LRC still updates %d targets %s after the kill; lease expiry did not propagate",
				len(targets), 4*failoverTTL)
		}
		clk.Sleep(50 * time.Millisecond)
	}
	// rli-b + lrc0 remain (the seed does not self-register): rli-a is gone.
	if reg.MemberCount() != 2 {
		return fmt.Errorf("scen-rli-failover: registry holds %d members after expiry, want 2", reg.MemberCount())
	}

	// ---- Phase 3: warm standby joins and bootstraps from the peer ----
	if _, err := dep.AddServer(replicaSpec("rli-c", nil)); err != nil {
		return err
	}
	joinStart := clk.Now()
	agentC, err := newRLIAgent("rli-c", nil)
	if err != nil {
		return err
	}
	defer agentC.Close()
	lrcAgent.PullNow() // the LRC starts fanning updates to the standby
	imported, err := dep.BootstrapStandby(ctx, "rli-c", "rli-b")
	if err != nil {
		return err
	}
	if imported == 0 {
		return errors.New("scen-rli-failover: standby bootstrap imported no filters from the peer")
	}
	// The standby must answer for preloaded names within the budget, from
	// the imported snapshot alone — no full soft-state cycle.
	cc, err := dep.Dial("rli-c")
	if err != nil {
		return err
	}
	defer cc.Close()
	var standbyReady time.Duration
	for {
		urls, err := cc.RLIQuery(ctx, gen.Logical(0))
		if err == nil && contains(urls, lrcNode.URL) {
			standbyReady = clk.Now().Sub(joinStart)
			break
		}
		if clk.Now().Sub(joinStart) > failoverStandbyBudget {
			return fmt.Errorf("scen-rli-failover: standby not serving within %s of joining (last answer %v, err %v)",
				failoverStandbyBudget, urls, err)
		}
		clk.Sleep(50 * time.Millisecond)
	}

	// The rebuilt group answers through a fresh failover client.
	fo, err := dep.DialFailover("rli-b", "rli-c")
	if err != nil {
		return err
	}
	defer fo.Close()
	for i := 0; i < 20; i++ {
		if _, err := fo.RLIQuery(ctx, gen.Logical(i)); err != nil {
			return fmt.Errorf("scen-rli-failover: rebuilt group query %d: %w", i, err)
		}
	}

	if p.Bench != nil {
		p.Bench.AddScenario("scen-rli-failover", kill, cfg, killRes)
	}

	br, kd := baseRes[0].Result, kr.Latencies
	rows := [][]string{
		{"baseline", "2 replicas, queries issued/errors", fmt.Sprintf("%d/%d", br.Issued, br.Errors)},
		{"baseline", "p50/p99", fmt.Sprintf("%s/%s", lat(br.Latencies.P50), lat(br.Latencies.P99))},
		{"kill", "queries issued/errors", fmt.Sprintf("%d/%d", kr.Issued, kr.Errors)},
		{"kill", "query success", fmt.Sprintf("%.3f%% (floor 99%%)", successPct)},
		{"kill", "p50/p99", fmt.Sprintf("%s/%s", lat(kd.P50), lat(kd.P99))},
		{"expiry", "registry members after lease expiry", fmt.Sprintf("%d (joins=%d expired=%d)", reg.MemberCount(), reg.Stats().Joins, reg.Stats().Expired)},
		{"standby", "filters imported from peer", fmt.Sprintf("%d", imported)},
		{"standby", "join -> first answered query", fmt.Sprintf("%.0fms (budget %s)", standbyReady.Seconds()*1000, failoverStandbyBudget)},
	}
	table(p.Out, fmt.Sprintf("Scenario scen-rli-failover: %d-mapping catalog, 2-replica RLI group, 1 replica killed under load", n),
		"breaker-steered failover keeps success >= 99% through the kill; the warm standby serves within seconds of joining",
		[]string{"phase", "metric", "value"},
		rows)
	return nil
}
