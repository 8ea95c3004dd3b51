package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"shmt"
)

// tenantReq is testReq with a tenant and a sequence marker.
func tenantReq(tenant string, i int) shmt.BatchRequest {
	r := testReq()
	r.Tenant = tenant
	r.Attrs = map[string]float64{"seq": float64(i)}
	return r
}

// wedge occupies the gated dispatcher with one default-tenant request so
// subsequent submissions pile up in the tenant queues. It returns the
// submit's error channel.
func wedge(t *testing.T, b *Batcher) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), testReq())
		done <- err
	}()
	// Wait until the dispatcher has popped the request (it then blocks at
	// the backend's gate; with MaxBatch 1 it cannot pop another).
	waitDispatched(t, b, 1)
	return done
}

// waitQueued polls until the batcher's total backlog reaches n.
func waitQueued(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for b.QueueLen() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue length %d never reached %d", b.QueueLen(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherWFQFairness: with two tenants backed up behind a wedged
// dispatcher, drain shares must track the configured weights — weight 1 vs
// weight 3 yields a 1:3 dispatch ratio over any aligned window.
func TestBatcherWFQFairness(t *testing.T) {
	be := &fakeBackend{gate: make(chan struct{})}
	b := NewBatcher(be, Config{
		MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 64,
		Tenants: map[string]TenantConfig{
			"light": {Weight: 1},
			"heavy": {Weight: 3},
		},
	})
	first := wedge(t, b)

	const nLight, nHeavy = 8, 24
	errs := make(chan error, nLight+nHeavy)
	submit := func(tenant string, i int) {
		go func() {
			_, err := b.Submit(context.Background(), tenantReq(tenant, i))
			errs <- err
		}()
	}
	// Queue deterministically: every light request is in before any heavy
	// one, so FIFO would drain all 8 light requests first — the weighted
	// interleave below can only come from the deficit rotation.
	for i := 0; i < nLight; i++ {
		submit("light", i)
		waitQueued(t, b, i+1)
	}
	for i := 0; i < nHeavy; i++ {
		submit("heavy", i)
		waitQueued(t, b, nLight+i+1)
	}

	close(be.gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nLight+nHeavy; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	order := be.tenantOrder()
	if len(order) != 1+nLight+nHeavy {
		t.Fatalf("dispatched %d requests, want %d", len(order), 1+nLight+nHeavy)
	}
	// Drop the wedge request; over the first 24 weighted pops the shares
	// must track 1:3 (6 light, 18 heavy), give or take rotation phase.
	window := order[1 : 1+24]
	light := 0
	for _, tn := range window {
		if tn == "light" {
			light++
		}
	}
	if light < 5 || light > 7 {
		t.Fatalf("light drained %d of first 24 (order %v), want ~6 — weights not honored", light, window)
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherSingleTenantFIFO: with one tenant the deficit rotation must be
// bit-identical to a FIFO — requests drain in exact arrival order.
func TestBatcherSingleTenantFIFO(t *testing.T) {
	be := &fakeBackend{gate: make(chan struct{})}
	b := NewBatcher(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 32})
	first := wedge(t, b)

	const n = 10
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		req := testReq()
		req.Attrs = map[string]float64{"seq": float64(i)}
		go func(r shmt.BatchRequest) {
			_, err := b.Submit(context.Background(), r)
			errs <- err
		}(req)
		waitQueued(t, b, i+1)
	}

	close(be.gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	reqs := be.requests()
	if len(reqs) != n+1 {
		t.Fatalf("dispatched %d, want %d", len(reqs), n+1)
	}
	for i, r := range reqs[1:] {
		if got := r.Attrs["seq"]; got != float64(i) {
			t.Fatalf("dispatch %d has seq %v, want %d — not FIFO", i, got, i)
		}
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherTenantQueueDepthSheds: a tenant at its own queue depth sheds
// with an error naming the tenant, while other tenants keep queueing.
func TestBatcherTenantQueueDepthSheds(t *testing.T) {
	be := &fakeBackend{gate: make(chan struct{})}
	b := NewBatcher(be, Config{
		MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 8,
		Tenants: map[string]TenantConfig{"small": {Weight: 1, QueueDepth: 1}},
	})
	first := wedge(t, b)

	queued := make(chan error, 2)
	go func() {
		_, err := b.Submit(context.Background(), tenantReq("small", 0))
		queued <- err
	}()
	waitQueued(t, b, 1)

	_, err := b.Submit(context.Background(), tenantReq("small", 1))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submit: err = %v, want ErrQueueFull", err)
	}
	if !strings.Contains(err.Error(), `"small"`) {
		t.Fatalf("shed error %q does not name the tenant", err)
	}

	// The other tenant is unaffected by small's full queue.
	go func() {
		_, err := b.Submit(context.Background(), tenantReq("other", 0))
		queued <- err
	}()
	waitQueued(t, b, 2)

	close(be.gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-queued; err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}

	var small *TenantStatus
	for _, ts := range b.Tenants() {
		if ts.Name == "small" {
			s := ts
			small = &s
		}
	}
	if small == nil || small.Shed != 1 || small.QueueDepth != 1 {
		t.Fatalf("tenant status %+v, want small with Shed=1 QueueDepth=1", small)
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
