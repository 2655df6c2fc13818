package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/lrc"
	"repro/internal/wire"
)

// dialCounter builds soft-state links to the deployment's servers the way
// Deployment.Peer does, counting the connections each link opens.
type dialCounter struct {
	d      *Deployment
	window int
	mu     sync.Mutex
	peers  map[string]*client.Peer
	dials  map[string]int
}

func (c *dialCounter) peer(url string) *client.Peer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.peers == nil {
		c.peers, c.dials = map[string]*client.Peer{}, map[string]int{}
	}
	n, err := c.d.resolve(url)
	if err != nil {
		panic(err)
	}
	p := client.NewPeer(client.Options{MaxInFlight: c.window, Dialer: func() (net.Conn, error) {
		c.mu.Lock()
		c.dials[url]++
		c.mu.Unlock()
		return c.d.dialNode(n)
	}})
	c.peers[url] = p
	return p
}

func (c *dialCounter) dialed(url string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dials[url]
}

// senderOver deploys "lrc1" holding n names, "rli1" and "rli2", none
// connected, and returns a soft-state sender over lrc1's catalog whose links
// are counted Peers, passed through wrap when it is set.
func senderOver(t *testing.T, n, window, batch int, wrap func(*client.Peer) lrc.Updater) (*Deployment, *lrc.Service, *dialCounter) {
	t.Helper()
	d := NewDeployment()
	t.Cleanup(d.Close)
	lnode, err := d.AddServer(fastSpec("lrc1", true, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rli1", "rli2"} {
		if _, err := d.AddServer(fastSpec(name, false, true)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := lnode.LRC.CreateMapping(ctx, fmt.Sprintf("lfn://link/%02d", i), "pfn://x"); err != nil {
			t.Fatal(err)
		}
	}
	links := &dialCounter{d: d, window: window}
	svc, err := lrc.New(ctx, lrc.Config{
		URL: "rls://lrc1-sender", DB: lnode.LRC.DB(), UpdateWindow: window, FullBatch: batch,
		Dial: func(_ context.Context, url string) (lrc.Updater, error) {
			if wrap != nil {
				return wrap(links.peer(url)), nil
			}
			return links.peer(url), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return d, svc, links
}

// resolves reports whether the named RLI answers for the logical name.
func resolves(t *testing.T, d *Deployment, rliName, logical string) bool {
	t.Helper()
	rc, err := d.Dial(rliName)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_, err = rc.RLIQuery(ctx, logical)
	return err == nil
}

// TestSoftStateLinkHandshakesOncePerTarget: at the paper's lock-step window
// the sender keeps one connection per RLI target across update passes of
// both kinds instead of dialing per update.
func TestSoftStateLinkHandshakesOncePerTarget(t *testing.T) {
	d, svc, links := senderOver(t, 30, 0, 7, nil)
	for _, tg := range []wire.RLITarget{{URL: "rls://rli1"}, {URL: "rls://rli2", Bloom: true}} {
		if err := svc.AddRLITarget(ctx, tg); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 3; pass++ {
		for _, res := range svc.ForceUpdate(ctx) {
			if res.Err != nil {
				t.Fatalf("pass %d to %s: %v", pass, res.URL, res.Err)
			}
		}
	}
	for _, url := range []string{"rls://rli1", "rls://rli2"} {
		if got := links.dialed(url); got != 1 {
			t.Fatalf("%s: %d handshakes across 3 passes, want 1", url, got)
		}
	}
	if !resolves(t, d, "rli1", "lfn://link/07") || !resolves(t, d, "rli2", "lfn://link/07") {
		t.Fatal("updates did not reach both RLIs")
	}
	if err := svc.RemoveRLITarget(ctx, "rls://rli2"); err != nil {
		t.Fatal(err)
	}
	if err := links.peers["rls://rli2"].Ping(ctx); err == nil {
		t.Fatal("link still usable after its target was removed")
	}
}

// TestIdleReapedLinkRedials: an RLI that reaps idle connections between two
// update passes costs the sender a redial, not a failed update.
func TestIdleReapedLinkRedials(t *testing.T) {
	d := NewDeployment()
	defer d.Close()
	rspec := fastSpec("rli1", false, true)
	rspec.IdleTimeout = 30 * time.Millisecond
	rnode, err := d.AddServer(rspec)
	if err != nil {
		t.Fatal(err)
	}
	lnode, err := d.AddServer(fastSpec("lrc1", true, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("lrc1", "rli1", false); err != nil {
		t.Fatal(err)
	}
	if err := lnode.LRC.CreateMapping(ctx, "lfn://idle", "pfn://idle"); err != nil {
		t.Fatal(err)
	}
	if res := lnode.LRC.ForceUpdate(ctx); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if rnode.Server.ConnCount() != 1 {
		t.Fatalf("RLI holds %d connections after a pass, want the sender's 1", rnode.Server.ConnCount())
	}
	deadline := time.Now().Add(5 * time.Second)
	for rnode.Server.ConnCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle link never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the sender's reader see the close
	if res := lnode.LRC.ForceUpdate(ctx); res[0].Err != nil {
		t.Fatalf("pass after the reap: %v", res[0].Err)
	}
	st := lnode.LRC.TargetStats()[0]
	if st.Failed != 0 || st.Sent != 2 {
		t.Fatalf("target stats = %+v, want Sent=2 Failed=0", st)
	}
}

// failingStarter is a link whose nth windowed batch fails to start.
type failingStarter struct {
	*client.Peer
	failAt, starts int
}

func (f *failingStarter) SSFullBatchStart(ctx context.Context, lrcURL string, names []string) (func(context.Context) error, error) {
	if f.starts++; f.starts == f.failAt {
		return nil, errors.New("injected batch failure")
	}
	return f.Peer.SSFullBatchStart(ctx, lrcURL, names)
}

// TestFailedWindowSettlesOutstandingAcks: a windowed full update that fails
// with acknowledgements outstanding must settle them itself. The link
// outlives the pass, so an unsettled ack would hold its in-flight slot for
// ever and the next pass would block on the link's MaxInFlight cap.
func TestFailedWindowSettlesOutstandingAcks(t *testing.T) {
	const window, n = 4, 40
	var link *failingStarter
	d, svc, links := senderOver(t, n, window, 5, func(p *client.Peer) lrc.Updater {
		link = &failingStarter{Peer: p, failAt: window} // 3 acks outstanding
		return link
	})
	if err := svc.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli1"}); err != nil {
		t.Fatal(err)
	}
	if res := svc.ForceUpdate(ctx); res[0].Err == nil {
		t.Fatal("injected batch failure did not surface")
	}
	if got := link.InFlight(); got != 0 {
		t.Fatalf("%d calls still in flight on the link after the failed pass", got)
	}
	bounded, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	res := svc.ForceUpdate(bounded)
	if res[0].Err != nil || res[0].Names != n {
		t.Fatalf("next pass on the same target = %+v, want %d names", res[0], n)
	}
	if got := links.dialed("rls://rli1"); got != 1 {
		t.Fatalf("link opened %d connections, want 1: the failure was not the connection's", got)
	}
	if !resolves(t, d, "rli1", fmt.Sprintf("lfn://link/%02d", n-1)) {
		t.Fatal("second pass did not reach the RLI")
	}
}
