package membership

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

// Agent defaults.
const (
	DefaultHeartbeatInterval = 2 * time.Second
	DefaultPullInterval      = 3 * time.Second
	// agentOpTimeout bounds each seed RPC so a wedged seed cannot stall the
	// agent loop past the next tick.
	agentOpTimeout = 5 * time.Second
)

// MemberClient is the seed-facing RPC surface the agent needs. client.Peer
// satisfies it and replaces a dead connection itself, so the agent keeps one
// MemberClient per seed from first use until Close.
type MemberClient interface {
	MemberJoin(ctx context.Context, m wire.MemberInfo) error
	MemberLeave(ctx context.Context, name string) error
	MemberHeartbeat(ctx context.Context, name string) error
	MemberView(ctx context.Context, since uint64) (*wire.MemberViewResponse, error)
	Close() error
}

// AgentConfig configures a node-side membership agent.
type AgentConfig struct {
	// Self is this node's registration record.
	Self wire.MemberInfo
	// Seeds are the seed servers' urls, tried in order until one answers.
	Seeds []string
	// Dial opens the link to a seed; it is called again for a seed only
	// while it has never succeeded.
	Dial func(ctx context.Context, url string) (MemberClient, error)
	// HeartbeatInterval is the lease-renewal period; it must be comfortably
	// below the registry TTL. DefaultHeartbeatInterval if zero.
	HeartbeatInterval time.Duration
	// PullInterval is the anti-entropy view-pull period.
	// DefaultPullInterval if zero.
	PullInterval time.Duration
	// OnView is called (from the agent goroutine) with every view whose
	// generation advanced past the last one seen. Optional.
	OnView func(view *wire.MemberViewResponse)
	// Clock drives the tickers; defaults to the real clock.
	Clock clock.Clock
	// Logger receives agent diagnostics. Nil discards.
	Logger *slog.Logger
}

// Agent keeps one node registered with the seed tier: it joins on start,
// heartbeats to renew its lease (re-joining when the seed reports the lease
// expired), periodically pulls generation-numbered views for anti-entropy,
// and best-effort leaves on close. One goroutine, one link per seed, the
// current seed rotated on failure.
type Agent struct {
	cfg AgentConfig
	clk clock.Clock
	log *slog.Logger

	mu    sync.Mutex
	conns []MemberClient // per seed; nil until Dial has succeeded for it
	seed  int            // index of the seed calls currently go to
	gen   uint64         // last view generation applied
	st    AgentStats

	stop chan struct{}
	wg   sync.WaitGroup
}

// AgentStats counts agent activity.
type AgentStats struct {
	Joins      int64
	Heartbeats int64
	Rejoins    int64
	ViewsSeen  int64
	SeedErrors int64
}

// NewAgent creates an agent. Call Start to run it.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Self.Name == "" || cfg.Self.URL == "" {
		return nil, errors.New("membership: agent needs Self.Name and Self.URL")
	}
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("membership: agent needs at least one seed")
	}
	if cfg.Dial == nil {
		return nil, errors.New("membership: agent needs a Dial function")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.PullInterval <= 0 {
		cfg.PullInterval = DefaultPullInterval
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Agent{
		cfg:   cfg,
		clk:   cfg.Clock,
		log:   cfg.Logger,
		conns: make([]MemberClient, len(cfg.Seeds)),
		stop:  make(chan struct{}),
	}, nil
}

// Start joins the seed tier and launches the heartbeat/anti-entropy loop.
// The initial join is attempted synchronously so a deployment helper can
// sequence "agent started" with "member visible"; failure is not fatal —
// the loop keeps retrying via the heartbeat path.
func (a *Agent) Start(ctx context.Context) error {
	err := a.join(ctx)
	a.wg.Add(1)
	go a.run()
	return err
}

// Close stops the loop and best-effort deregisters. Safe to call more than
// once; only the first call leaves.
func (a *Agent) Close() {
	var leave bool
	select {
	case <-a.stop:
	default:
		close(a.stop)
		leave = true
	}
	a.wg.Wait()
	if !leave {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), agentOpTimeout)
	defer cancel()
	_ = a.withSeed(ctx, func(ctx context.Context, mc MemberClient) error {
		return mc.MemberLeave(ctx, a.cfg.Self.Name)
	})
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, mc := range a.conns {
		if mc != nil {
			_ = mc.Close()
			a.conns[i] = nil
		}
	}
}

// run is the agent goroutine: heartbeat and view-pull tickers under one
// select, stopped by Close.
func (a *Agent) run() {
	defer a.wg.Done()
	hb := a.clk.NewTicker(a.cfg.HeartbeatInterval)
	defer hb.Stop()
	pull := a.clk.NewTicker(a.cfg.PullInterval)
	defer pull.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-hb.C():
			a.heartbeat()
		case <-pull.C():
			a.pullView()
		}
	}
}

// withSeed runs one RPC against the current seed. A typed server status
// means the seed answered — it is healthy even when the operation failed —
// and anything else moves on to the next seed, at most once round the list.
// Rotating closes nothing: a seed that comes back is reused.
func (a *Agent) withSeed(ctx context.Context, fn func(context.Context, MemberClient) error) error {
	var lastErr error
	for range a.cfg.Seeds {
		a.mu.Lock()
		idx := a.seed
		mc := a.conns[idx]
		var err error
		if mc == nil {
			if mc, err = a.cfg.Dial(ctx, a.cfg.Seeds[idx]); err == nil {
				a.conns[idx] = mc
			}
		}
		a.mu.Unlock()
		if err == nil {
			err = fn(ctx, mc)
			if err == nil || isStatusError(err) {
				return err
			}
		}
		lastErr = err
		a.mu.Lock()
		if a.seed == idx {
			a.seed = (idx + 1) % len(a.cfg.Seeds)
		}
		a.st.SeedErrors++
		a.mu.Unlock()
	}
	return lastErr
}

// statusCoded matches client.StatusError without importing the client
// package (membership must stay importable from core's dependents).
type statusCoded interface{ StatusCode() uint16 }

func isStatusError(err error) bool {
	var sc statusCoded
	return errors.As(err, &sc)
}

func (a *Agent) join(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, agentOpTimeout)
	defer cancel()
	err := a.withSeed(ctx, func(ctx context.Context, mc MemberClient) error {
		return mc.MemberJoin(ctx, a.cfg.Self)
	})
	a.mu.Lock()
	if err == nil {
		a.st.Joins++
	}
	a.mu.Unlock()
	if err != nil {
		a.log.Warn("membership: join failed", "self", a.cfg.Self.Name, "err", err)
	}
	return err
}

// heartbeat renews the lease; a not-found answer means the seed expired the
// member (or never saw it), so the agent re-joins.
func (a *Agent) heartbeat() {
	ctx, cancel := context.WithTimeout(context.Background(), agentOpTimeout)
	defer cancel()
	err := a.withSeed(ctx, func(ctx context.Context, mc MemberClient) error {
		return mc.MemberHeartbeat(ctx, a.cfg.Self.Name)
	})
	switch {
	case err == nil:
		a.mu.Lock()
		a.st.Heartbeats++
		a.mu.Unlock()
	case isNotFound(err):
		a.mu.Lock()
		a.st.Rejoins++
		a.mu.Unlock()
		_ = a.join(context.Background())
	default:
		a.log.Warn("membership: heartbeat failed", "self", a.cfg.Self.Name, "err", err)
	}
}

func isNotFound(err error) bool {
	var sc statusCoded
	if errors.As(err, &sc) {
		return sc.StatusCode() == uint16(wire.StatusNotFound)
	}
	return false
}

// pullView fetches the seed's view and applies it when the generation
// advanced — the anti-entropy path that heals missed changes regardless of
// which seed saw them.
func (a *Agent) pullView() {
	ctx, cancel := context.WithTimeout(context.Background(), agentOpTimeout)
	defer cancel()
	a.mu.Lock()
	since := a.gen
	a.mu.Unlock()
	var view *wire.MemberViewResponse
	err := a.withSeed(ctx, func(ctx context.Context, mc MemberClient) error {
		v, err := mc.MemberView(ctx, since)
		view = v
		return err
	})
	if err != nil {
		a.log.Warn("membership: view pull failed", "self", a.cfg.Self.Name, "err", err)
		return
	}
	if view == nil || !view.Changed {
		return
	}
	a.mu.Lock()
	if view.Generation <= a.gen {
		a.mu.Unlock()
		return
	}
	a.gen = view.Generation
	a.st.ViewsSeen++
	a.mu.Unlock()
	a.log.Info("membership: view advanced", "self", a.cfg.Self.Name,
		"generation", view.Generation, "members", len(view.Members))
	if a.cfg.OnView != nil {
		a.cfg.OnView(view)
	}
}

// PullNow forces one synchronous view pull (tests and bootstrap
// sequencing).
func (a *Agent) PullNow() { a.pullView() }

// Generation returns the last view generation applied.
func (a *Agent) Generation() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gen
}

// Stats returns a snapshot of agent counters.
func (a *Agent) Stats() AgentStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st
}
