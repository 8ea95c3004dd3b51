package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"shmt"
)

// fakeBackend records batch sizes (and each request's tenant, in dispatch
// order) and can be gated to hold rounds open.
type fakeBackend struct {
	mu      sync.Mutex
	sizes   []int
	tenants []string            // per request, in dispatch order
	reqs    []shmt.BatchRequest // per request, in dispatch order
	gate    chan struct{}       // when non-nil, each round blocks until a receive
	quar    []string
	err     error
}

func (f *fakeBackend) ExecuteBatch(reqs []shmt.BatchRequest) (*shmt.BatchResult, error) {
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	f.sizes = append(f.sizes, len(reqs))
	for _, r := range reqs {
		f.tenants = append(f.tenants, r.Tenant)
		f.reqs = append(f.reqs, r)
	}
	f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	br := &shmt.BatchResult{}
	for range reqs {
		br.Reports = append(br.Reports, &shmt.Report{Output: shmt.NewMatrix(1, 1), HLOPs: 1})
	}
	return br, nil
}

func (f *fakeBackend) QuarantinedDevices() []string { return f.quar }

func (f *fakeBackend) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.sizes...)
}

func (f *fakeBackend) tenantOrder() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.tenants...)
}

func (f *fakeBackend) requests() []shmt.BatchRequest {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]shmt.BatchRequest(nil), f.reqs...)
}

func testReq() shmt.BatchRequest {
	return shmt.BatchRequest{Op: shmt.OpAdd, Inputs: []*shmt.Matrix{shmt.NewMatrix(2, 2), shmt.NewMatrix(2, 2)}}
}

// waitFor polls cond until it holds; what names the condition for the
// failure message.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDispatched polls until the dispatcher has popped n requests in total.
func waitDispatched(t *testing.T, b *Batcher, n uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("the dispatcher to pop %d requests", n), func() bool {
		total := uint64(0)
		for _, ts := range b.Tenants() {
			total += ts.Dispatched
		}
		return total >= n
	})
}

// waitInFlight polls until a round is inside the backend.
func waitInFlight(t *testing.T, b *Batcher) {
	t.Helper()
	waitFor(t, "a round in flight", func() bool { return b.InFlight() == 1 })
}

type submitted struct {
	res Result
	err error
}

// submitAsync runs submit on its own goroutine and delivers what it returned.
func submitAsync(submit func(context.Context, shmt.BatchRequest) (Result, error), req shmt.BatchRequest) chan submitted {
	ch := make(chan submitted, 1)
	go func() {
		res, err := submit(context.Background(), req)
		ch <- submitted{res, err}
	}()
	return ch
}

// neverLinger is a MaxLinger no test waits out: a round that relies on the
// timer instead of the arrival rule hits the test timeout.
const neverLinger = time.Hour

// TestBatcherLoneRequestNeverLingers: with nothing announced the dispatcher
// is work-conserving — a lone request is flushed at once, whatever MaxLinger.
func TestBatcherLoneRequestNeverLingers(t *testing.T) {
	be := &fakeBackend{}
	b := NewBatcher(be, Config{MaxBatch: 64, MaxLinger: 5 * time.Second})
	start := time.Now()
	res, err := b.Submit(context.Background(), testReq())
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 1 {
		t.Fatalf("BatchSize = %d, want 1", res.BatchSize)
	}
	if waited := time.Since(start); waited > 100*time.Millisecond {
		t.Fatalf("lone request waited %v of a 5s linger; the dispatcher is not work-conserving", waited)
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherWaitsForAnnouncedRequest: a round whose queues are empty stays
// open while a request is announced, and that request lands in it.
func TestBatcherWaitsForAnnouncedRequest(t *testing.T) {
	be := &fakeBackend{}
	b := NewBatcher(be, Config{MaxBatch: 8, MaxLinger: neverLinger})
	late := b.Announce()
	defer late.Release()

	first := submitAsync(b.Submit, testReq())
	waitDispatched(t, b, 1)
	if n := b.Arriving(); n != 1 {
		t.Fatalf("arriving = %d, want 1", n)
	}
	second := submitAsync(late.Submit, testReq())
	for i, ch := range []chan submitted{first, second} {
		got := <-ch
		if got.err != nil {
			t.Fatalf("submit %d: %v", i, got.err)
		}
		if got.res.BatchSize != 2 {
			t.Fatalf("submit %d: BatchSize = %d, want 2 — the round did not wait for the announced request", i, got.res.BatchSize)
		}
	}
	if sizes := be.batchSizes(); len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("batch sizes = %v, want [2]", sizes)
	}
	if n := b.Arriving(); n != 0 {
		t.Fatalf("arriving = %d after Submit retired the announcement, want 0", n)
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherReleaseFreesWaitingRound: withdrawing the only announcement
// flushes the round that was waiting for it; Release is idempotent.
func TestBatcherReleaseFreesWaitingRound(t *testing.T) {
	be := &fakeBackend{}
	b := NewBatcher(be, Config{MaxBatch: 8, MaxLinger: neverLinger})
	gone := b.Announce()

	first := submitAsync(b.Submit, testReq())
	waitDispatched(t, b, 1)
	if sizes := be.batchSizes(); len(sizes) != 0 {
		t.Fatalf("round %v ran while a request was still announced", sizes)
	}
	gone.Release()
	gone.Release()
	got := <-first
	if got.err != nil || got.res.BatchSize != 1 {
		t.Fatalf("res = %+v, err = %v, want a round of one", got.res, got.err)
	}
	if n := b.Arriving(); n != 0 {
		t.Fatalf("arriving = %d after a double Release, want 0", n)
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherStuckAnnouncementCostsAtMostMaxLinger: an announcement that
// never resolves (a client trickling its body) delays a round by MaxLinger
// and no more.
func TestBatcherStuckAnnouncementCostsAtMostMaxLinger(t *testing.T) {
	const linger = 50 * time.Millisecond
	be := &fakeBackend{}
	b := NewBatcher(be, Config{MaxBatch: 8, MaxLinger: linger})
	stuck := b.Announce()
	defer stuck.Release()

	for round := 0; round < 2; round++ {
		start := time.Now()
		res, err := b.Submit(context.Background(), testReq())
		waited := time.Since(start)
		if err != nil || res.BatchSize != 1 {
			t.Fatalf("round %d: res = %+v, err = %v, want a round of one", round, res, err)
		}
		if waited < linger {
			t.Fatalf("round %d flushed after %v with a request announced; want it held for %v", round, waited, linger)
		}
		if waited > linger+2*time.Second {
			t.Fatalf("round %d waited %v, want at most MaxLinger (%v)", round, waited, linger)
		}
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherBacklogCoalesces: requests queued while a round runs coalesce
// into the next round up to MaxBatch, in deficit-rotation order — no
// announcement and no timer involved.
func TestBatcherBacklogCoalesces(t *testing.T) {
	be := &fakeBackend{gate: make(chan struct{})}
	b := NewBatcher(be, Config{
		MaxBatch: 6, MaxLinger: neverLinger, QueueDepth: 32,
		Tenants: map[string]TenantConfig{"light": {Weight: 1}, "heavy": {Weight: 3}},
	})
	// The wedge request is alone, so it goes straight to the gated backend.
	first := submitAsync(b.Submit, testReq())
	waitInFlight(t, b)

	// Every light request is queued before any heavy one.
	var queued []chan submitted
	for i, tenant := range []string{"light", "light", "light", "light", "heavy", "heavy", "heavy", "heavy"} {
		queued = append(queued, submitAsync(b.Submit, tenantReq(tenant, i%4)))
		waitQueued(t, b, i+1)
	}
	close(be.gate)
	for i, ch := range append([]chan submitted{first}, queued...) {
		if got := <-ch; got.err != nil {
			t.Fatalf("submit %d: %v", i, got.err)
		}
	}

	if sizes := be.batchSizes(); len(sizes) != 3 || sizes[0] != 1 || sizes[1] != 6 || sizes[2] != 2 {
		t.Fatalf("batch sizes = %v, want [1 6 2]: the backlog fills one round to MaxBatch", sizes)
	}
	// One grant of deficit per rotation stop: light 1, heavy 3, light 1, …
	want := []string{"light", "heavy", "heavy", "heavy", "light", "heavy", "light", "light"}
	reqs := be.requests()[1:]
	next := map[string]float64{}
	for i, r := range reqs {
		if r.Tenant != want[i] {
			t.Fatalf("dispatch order %v, want %v — weights not honored inside a round", be.tenantOrder()[1:], want)
		}
		if r.Attrs["seq"] != next[r.Tenant] {
			t.Fatalf("dispatch %d: tenant %s seq %v, want %v — not FIFO within the tenant", i, r.Tenant, r.Attrs["seq"], next[r.Tenant])
		}
		next[r.Tenant]++
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherShedsWhenQueueFull: with the dispatcher wedged and the queue at
// capacity, the next Submit must fail fast with ErrQueueFull.
func TestBatcherShedsWhenQueueFull(t *testing.T) {
	be := &fakeBackend{gate: make(chan struct{})}
	b := NewBatcher(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 2})

	// One request occupies the dispatcher (gated); give it time to be taken
	// off the queue, then fill the two queue slots.
	first := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), testReq())
		first <- err
	}()
	time.Sleep(20 * time.Millisecond)
	queued := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := b.Submit(context.Background(), testReq())
			queued <- err
		}()
	}
	time.Sleep(20 * time.Millisecond)

	if _, err := b.Submit(context.Background(), testReq()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}

	close(be.gate) // release every round
	for i := 0; i < 3; i++ {
		var err error
		if i == 0 {
			err = <-first
		} else {
			err = <-queued
		}
		if err != nil {
			t.Fatalf("queued submit %d failed after release: %v", i, err)
		}
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherDeadlineWhileQueued: a request whose context expires before its
// round starts is answered with the context error and skipped at gather.
func TestBatcherDeadlineWhileQueued(t *testing.T) {
	be := &fakeBackend{gate: make(chan struct{})}
	b := NewBatcher(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 8})

	go b.Submit(context.Background(), testReq()) // wedges the dispatcher
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := b.Submit(ctx, testReq())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	close(be.gate)
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The expired request must not have occupied a batch slot.
	for _, s := range be.batchSizes() {
		if s != 1 {
			t.Fatalf("batch sizes = %v; expired request executed", be.batchSizes())
		}
	}
}

// TestBatcherDrain: Close refuses new work, finishes queued work, and is
// idempotent.
func TestBatcherDrain(t *testing.T) {
	be := &fakeBackend{}
	b := NewBatcher(be, Config{MaxBatch: 4, MaxLinger: time.Millisecond})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Submit(context.Background(), testReq())
		}(i)
	}
	wg.Wait()
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pre-drain submit %d: %v", i, err)
		}
	}
	if _, err := b.Submit(context.Background(), testReq()); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err) // second Close is a no-op
	}
}

// TestBatcherBackendError: a failed round propagates the error to every
// member request.
func TestBatcherBackendError(t *testing.T) {
	boom := errors.New("boom")
	be := &fakeBackend{err: boom}
	b := NewBatcher(be, Config{MaxBatch: 4, MaxLinger: time.Millisecond})
	if _, err := b.Submit(context.Background(), testReq()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want backend error", err)
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
