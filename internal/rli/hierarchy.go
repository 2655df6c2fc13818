package rli

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Hierarchical RLIs are the extension the paper's §7 describes: "The latest
// RLS version includes support for a hierarchy of RLI servers that update
// one another." A leaf RLI aggregates LRCs; an interior RLI aggregates
// other RLIs, so a single query at the root can locate data registered
// anywhere below it.
//
// Forwarding preserves resolution semantics: an RLI forwards its state
// keyed by the *originating LRC url*, so a parent's query answer still
// points the client at the LRCs that actually hold the mappings, exactly
// as if those LRCs updated the parent directly. Database-backed state is
// forwarded as full updates grouped per source LRC; Bloom filters are
// forwarded bitmap-for-bitmap.

// Updater is the RLI's view of its link to a parent RLI. It is structurally
// identical to lrc.Updater, so client.Peer satisfies both; it is redeclared
// here so the rli package does not depend on lrc. A Peer replaces a dead
// connection itself, so the forwarder keeps one Updater per parent from the
// first forward until RemoveParent or Close.
type Updater interface {
	SSFullStart(ctx context.Context, lrcURL string, total uint64) error
	SSFullBatch(ctx context.Context, lrcURL string, names []string) error
	SSFullEnd(ctx context.Context, lrcURL string) error
	SSFullAbort(ctx context.Context, lrcURL string) error
	SSIncremental(ctx context.Context, lrcURL string, added, removed []string) error
	SSBloom(ctx context.Context, lrcURL string, bitmap []byte) error
	Close() error
}

// Dialer opens an Updater to the parent RLI at the given url. It runs under
// the forwarding lock and must not block (client.NewPeer connects lazily).
type Dialer func(ctx context.Context, url string) (Updater, error)

// parentState tracks the forwarding configuration, which is runtime state
// like the in-memory Bloom store (the paper's 2.0.9 had no persistent
// hierarchy configuration either).
type parentState struct {
	mu      sync.Mutex
	dial    Dialer
	parents map[string]Updater // nil until the parent's first forward
	batch   int
}

// ConfigureForwarding installs the dialer used to reach parent RLIs. It
// must be called before AddParent.
func (s *Service) ConfigureForwarding(dial Dialer, batchSize int) {
	if batchSize <= 0 {
		batchSize = 5000
	}
	s.forward.mu.Lock()
	defer s.forward.mu.Unlock()
	s.forward.dial = dial
	s.forward.batch = batchSize
	if s.forward.parents == nil {
		s.forward.parents = make(map[string]Updater)
	}
}

// AddParent registers a parent RLI to forward aggregated state to.
func (s *Service) AddParent(url string) error {
	s.forward.mu.Lock()
	defer s.forward.mu.Unlock()
	if s.forward.dial == nil {
		return fmt.Errorf("rli: ConfigureForwarding must be called before AddParent")
	}
	if url == "" || url == s.cfg.URL {
		return fmt.Errorf("rli: invalid parent url %q", url)
	}
	if _, dup := s.forward.parents[url]; dup {
		return fmt.Errorf("rli: parent %q already registered", url)
	}
	s.forward.parents[url] = nil
	return nil
}

// RemoveParent stops forwarding to a parent and closes its link.
func (s *Service) RemoveParent(url string) error {
	s.forward.mu.Lock()
	defer s.forward.mu.Unlock()
	up, ok := s.forward.parents[url]
	if !ok {
		return fmt.Errorf("rli: no parent %q", url)
	}
	delete(s.forward.parents, url)
	if up != nil {
		_ = up.Close()
	}
	return nil
}

// parentLink returns the parent's link, asking the dialer for it until one
// attempt has succeeded.
func (s *Service) parentLink(ctx context.Context, url string) (Updater, error) {
	s.forward.mu.Lock()
	defer s.forward.mu.Unlock()
	up, ok := s.forward.parents[url]
	if !ok {
		return nil, fmt.Errorf("rli: no parent %q", url)
	}
	if up == nil {
		var err error
		if up, err = s.forward.dial(ctx, url); err != nil {
			return nil, err
		}
		s.forward.parents[url] = up
	}
	return up, nil
}

// closeParents closes every parent link and forgets the parents.
func (s *Service) closeParents() {
	s.forward.mu.Lock()
	defer s.forward.mu.Unlock()
	for url, up := range s.forward.parents {
		delete(s.forward.parents, url)
		if up != nil {
			_ = up.Close()
		}
	}
}

// Parents lists the registered parent RLIs, sorted.
func (s *Service) Parents() []string {
	s.forward.mu.Lock()
	defer s.forward.mu.Unlock()
	out := make([]string, 0, len(s.forward.parents))
	for url := range s.forward.parents {
		out = append(out, url)
	}
	sort.Strings(out)
	return out
}

// ForwardResult reports one forwarding pass to one parent.
type ForwardResult struct {
	Parent  string
	Sources int // originating LRCs covered
	Names   int // names forwarded from database state
	Blooms  int // Bloom filters forwarded
	Elapsed time.Duration
	Err     error
}

// ForwardAll pushes this RLI's aggregated state to every parent now. The
// context bounds the whole pass.
func (s *Service) ForwardAll(ctx context.Context) []ForwardResult {
	s.forward.mu.Lock()
	batch := s.forward.batch
	parents := make([]string, 0, len(s.forward.parents))
	for url := range s.forward.parents {
		parents = append(parents, url)
	}
	s.forward.mu.Unlock()
	sort.Strings(parents)

	out := make([]ForwardResult, 0, len(parents))
	for _, parent := range parents {
		out = append(out, s.forwardTo(ctx, parent, batch))
	}
	return out
}

func (s *Service) forwardTo(ctx context.Context, parent string, batch int) (res ForwardResult) {
	res = ForwardResult{Parent: parent}
	start := s.clk.Now()
	defer func() { res.Elapsed = s.clk.Now().Sub(start) }()

	up, err := s.parentLink(ctx, parent)
	if err != nil {
		res.Err = err
		return res
	}

	// Database-backed state: per originating LRC, a full update carrying
	// that LRC's names.
	if s.db != nil {
		lrcs, err := s.db.LRCs()
		if err != nil {
			res.Err = err
			return res
		}
		for _, lrcURL := range lrcs {
			names, err := s.db.NamesForLRC(lrcURL)
			if err != nil {
				res.Err = err
				return res
			}
			if len(names) == 0 {
				continue
			}
			if err := forwardFull(ctx, up, lrcURL, names, batch); err != nil {
				res.Err = err
				return res
			}
			res.Sources++
			res.Names += len(names)
		}
	}

	// Bloom state: forward each filter under its originating LRC.
	s.mu.RLock()
	type bloomItem struct {
		url  string
		data *filterEntry
	}
	blooms := make([]bloomItem, 0, len(s.filters))
	for url, fe := range s.filters {
		blooms = append(blooms, bloomItem{url: url, data: fe})
	}
	s.mu.RUnlock()
	sort.Slice(blooms, func(i, j int) bool { return blooms[i].url < blooms[j].url })
	for _, b := range blooms {
		payload, err := b.data.bitmap.MarshalBinary()
		if err != nil {
			res.Err = err
			return res
		}
		if err := up.SSBloom(ctx, b.url, payload); err != nil {
			res.Err = err
			return res
		}
		res.Sources++
		res.Blooms++
	}
	return res
}

// forwardFull streams one source LRC's names to a parent as a full update.
// A failure after SSFullStart leaves a half-open session at the parent, so
// it is aborted best-effort rather than left to the parent's expiry; the
// abort uses a detached, bounded context because ctx may be what failed.
func forwardFull(ctx context.Context, up Updater, lrcURL string, names []string, batch int) (err error) {
	if err := up.SSFullStart(ctx, lrcURL, uint64(len(names))); err != nil {
		return err
	}
	defer func() {
		if err == nil {
			return
		}
		abctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
		defer cancel()
		_ = up.SSFullAbort(abctx, lrcURL)
	}()
	for lo := 0; lo < len(names); lo += batch {
		if err := up.SSFullBatch(ctx, lrcURL, names[lo:min(lo+batch, len(names))]); err != nil {
			return err
		}
	}
	return up.SSFullEnd(ctx, lrcURL)
}

// StartForwardLoop launches a background loop pushing ForwardAll every
// interval — the hierarchy analogue of the LRC's periodic full updates,
// keeping parent soft state refreshed ahead of its expiration timeout.
// Stops when the service closes.
func (s *Service) StartForwardLoop(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("rli: non-positive forward interval")
	}
	s.forward.mu.Lock()
	configured := s.forward.dial != nil
	s.forward.mu.Unlock()
	if !configured {
		return fmt.Errorf("rli: ConfigureForwarding must be called before StartForwardLoop")
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := s.clk.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C():
				s.ForwardAll(context.Background())
			}
		}
	}()
	return nil
}

// NamesForLRC is defined on the database in rlidb.go; this thin wrapper
// exposes it at the service level for diagnostics.
func (s *Service) NamesForLRC(ctx context.Context, lrcURL string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.db == nil {
		return nil, fmt.Errorf("rli: no database state")
	}
	return s.db.NamesForLRC(lrcURL)
}
