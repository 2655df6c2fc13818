// Package leakgood spawns goroutines whose shutdown edges leakcheck must
// find: WaitGroup discipline, done channels, context cancellation, channel
// producers, and evidence reached through a spawned callee or a call edge.
package leakgood

import (
	"context"
	"sync"
)

func work() {}

// WaitGroup discipline.
func spawnWaited() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// A done channel consumed by a select.
func spawnWithDone(done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				work()
			}
		}
	}()
}

// Context cancellation via a plain receive.
func spawnWithCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
		work()
	}()
}

// A producer closing its output channel terminates when consumers stop.
func spawnProducer() <-chan int {
	ch := make(chan int)
	go produce(ch)
	return ch
}

func produce(ch chan int) {
	defer close(ch)
	for i := 0; i < 8; i++ {
		ch <- i
	}
}

type server struct {
	quit chan struct{}
}

// Evidence found transitively: the spawned method's loop ranges over a
// channel.
func (s *server) start(events chan int) {
	go s.loop(events)
}

func (s *server) loop(events chan int) {
	for range events {
		work()
	}
}

// Evidence found through a call edge: the spawned literal has none of its
// own, but the method it calls drains a channel.
func (s *server) startDrain(events chan int) {
	go func() {
		s.loop(events)
	}()
}

// Intentional detachment, waived with a reason.
func spawnDetached() {
	//lint:ignore leakcheck one-shot best-effort warmup; process exit reaps it
	go work()
}
