package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/disk"
	"repro/internal/lrc"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestRLIFailureAndSoftStateReconstruction exercises the paper's §2 claim
// end to end: "If an RLI fails and later resumes operation, its state can
// be reconstructed using soft state updates."
func TestRLIFailureAndSoftStateReconstruction(t *testing.T) {
	ctx := context.Background()
	d := NewDeployment()
	defer d.Close()
	if _, err := d.AddServer(fastSpec("lrc1", true, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddServer(fastSpec("rli1", false, true)); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("lrc1", "rli1", false); err != nil {
		t.Fatal(err)
	}
	lc, _ := d.Dial("lrc1")
	defer lc.Close()
	lc.CreateMapping(ctx, "lfn://durable", "pfn://x")
	lnode, _ := d.Node("lrc1")
	for _, res := range lnode.LRC.ForceUpdate(ctx) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	// RLI "fails": kill its server and throw away its (memory) state by
	// replacing the node with a fresh one under a new name, then point the
	// LRC at the replacement. (RLIs need no persistent state — that's the
	// point of soft state.)
	rnode, _ := d.Node("rli1")
	rnode.Server.Close()
	if _, err := d.AddServer(fastSpec("rli1b", false, true)); err != nil {
		t.Fatal(err)
	}
	if err := lc.RemoveRLITarget(ctx, "rls://rli1"); err != nil {
		t.Fatal(err)
	}
	if err := lc.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli1b"}); err != nil {
		t.Fatal(err)
	}

	// The fresh RLI knows nothing until the next soft state update.
	rc, _ := d.Dial("rli1b")
	defer rc.Close()
	if _, err := rc.RLIQuery(ctx, "lfn://durable"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("fresh RLI answered before reconstruction: %v", err)
	}
	for _, res := range lnode.LRC.ForceUpdate(ctx) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	lrcs, err := rc.RLIQuery(ctx, "lfn://durable")
	if err != nil || len(lrcs) != 1 {
		t.Fatalf("reconstructed RLI = %v, %v", lrcs, err)
	}
}

// TestUpdateFailsOnDroppedLink injects a link fault mid-update and checks
// the LRC reports the error and succeeds on retry.
func TestUpdateFailsOnDroppedLink(t *testing.T) {
	d := NewDeployment()
	defer d.Close()
	if _, err := d.AddServer(fastSpec("rli1", false, true)); err != nil {
		t.Fatal(err)
	}
	rnode, _ := d.Node("rli1")

	// Build an LRC whose link to the RLI loses its first connection after a
	// byte budget; the link itself is kept and redials for the retry.
	var attempts atomic.Int64
	spec := fastSpec("lrc1", true, false)
	if _, err := d.AddServer(spec); err != nil {
		t.Fatal(err)
	}
	lnode, _ := d.Node("lrc1")
	svc, err := lrc.New(ctx, lrc.Config{
		URL: "rls://lrc1-flaky",
		DB:  lnode.LRC.DB(),
		Dial: func(ctx context.Context, url string) (lrc.Updater, error) {
			return client.NewPeer(client.Options{
				Dialer: func() (net.Conn, error) {
					budget := int64(1 << 62)
					if attempts.Add(1) == 1 {
						budget = 256 // dies mid-update
					}
					clientEnd, serverEnd := net.Pipe()
					go rnode.Server.ServeConn(serverEnd)
					return netsim.DropAfter(clientEnd, budget), nil
				},
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli1"}); err != nil {
		t.Fatal(err)
	}

	lc, _ := d.Dial("lrc1")
	defer lc.Close()
	for i := 0; i < 100; i++ {
		if err := lc.CreateMapping(ctx, fmt.Sprintf("lfn://flaky/%03d", i), fmt.Sprintf("pfn://%03d", i)); err != nil {
			t.Fatal(err)
		}
	}

	results := svc.ForceUpdate(ctx)
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("first update should fail on injected fault: %+v", results)
	}
	results = svc.ForceUpdate(ctx)
	if results[0].Err != nil {
		t.Fatalf("retry failed: %v", results[0].Err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("connections opened = %d, want 2 (the dropped one and its replacement)", got)
	}
	rc, _ := d.Dial("rli1")
	defer rc.Close()
	if _, err := rc.RLIQuery(ctx, "lfn://flaky/050"); err != nil {
		t.Fatalf("state missing after retry: %v", err)
	}
}

// TestExpirationEndToEnd drives the RLI expire thread with a fake clock
// across the full deployment stack.
func TestExpirationEndToEnd(t *testing.T) {
	fc := clock.NewFake(time.Unix(1_000_000, 0))
	d := NewDeployment()
	defer d.Close()
	fast := disk.Fast()
	if _, err := d.AddServer(ServerSpec{Name: "lrc1", LRC: true, Disk: &fast}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddServer(ServerSpec{
		Name: "rli1", RLI: true, Disk: &fast,
		Clock:             fc,
		RLITimeout:        time.Minute,
		RLIExpireInterval: 10 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("lrc1", "rli1", false); err != nil {
		t.Fatal(err)
	}
	lc, _ := d.Dial("lrc1")
	defer lc.Close()
	lc.CreateMapping(ctx, "lfn://fleeting", "pfn://x")
	lnode, _ := d.Node("lrc1")
	for _, res := range lnode.LRC.ForceUpdate(ctx) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	rc, _ := d.Dial("rli1")
	defer rc.Close()
	if _, err := rc.RLIQuery(ctx, "lfn://fleeting"); err != nil {
		t.Fatal(err)
	}
	// No refresh for two minutes of virtual time: the entry must expire.
	rnode, _ := d.Node("rli1")
	fc.Advance(2 * time.Minute)
	if n, err := rnode.RLI.ExpireNow(ctx); err != nil || n != 1 {
		t.Fatalf("ExpireNow = %d, %v", n, err)
	}
	if _, err := rc.RLIQuery(ctx, "lfn://fleeting"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("expired entry still answered: %v", err)
	}
	// A fresh update restores it — the steady-state refresh cycle.
	for _, res := range lnode.LRC.ForceUpdate(ctx) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if _, err := rc.RLIQuery(ctx, "lfn://fleeting"); err != nil {
		t.Fatalf("refreshed entry missing: %v", err)
	}
}

// TestBulkAttributesOverWire covers the bulk attribute paths end to end.
func TestBulkAttributesOverWire(t *testing.T) {
	_, lc, _ := newPair(t)
	lc.CreateMapping(ctx, "lfn://f", "pfn://f")
	if err := lc.DefineAttribute(ctx, "size", wire.ObjTarget, wire.AttrInt); err != nil {
		t.Fatal(err)
	}
	items := []wire.AttrWriteRequest{
		{Key: "pfn://f", Obj: wire.ObjTarget, Name: "size", Value: wire.AttrValue{Type: wire.AttrInt, I: 1}},
		{Key: "pfn://missing", Obj: wire.ObjTarget, Name: "size", Value: wire.AttrValue{Type: wire.AttrInt, I: 2}},
	}
	failures, err := lc.BulkAddAttributes(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || failures[0].Index != 1 || failures[0].Status != wire.StatusNotFound {
		t.Fatalf("failures = %+v", failures)
	}
	rem := []wire.AttrRemoveRequest{
		{Key: "pfn://f", Obj: wire.ObjTarget, Name: "size"},
		{Key: "pfn://f", Obj: wire.ObjTarget, Name: "size"}, // second remove fails
	}
	failures, err = lc.BulkRemoveAttributes(ctx, rem)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || failures[0].Index != 1 {
		t.Fatalf("remove failures = %+v", failures)
	}
}

func TestDropAfterFaultInjection(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := netsim.DropAfter(a, 4)
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := fc.Write([]byte("ab")); err != nil {
		t.Fatalf("in-budget write failed: %v", err)
	}
	if _, err := fc.Write([]byte("cdef")); err == nil {
		t.Fatal("budget-crossing write succeeded")
	}
	if _, err := fc.Write([]byte("x")); err == nil {
		t.Fatal("post-fault write succeeded")
	}
}
