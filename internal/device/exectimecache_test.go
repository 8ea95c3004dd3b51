package device

import (
	"testing"

	"shmt/internal/telemetry"
	"shmt/internal/vop"
)

// costDevice is a fakeDevice whose cost model actually depends on the shape,
// so memoization errors are observable.
type costDevice struct{ fakeDevice }

func (c *costDevice) ExecTime(op vop.Opcode, n int) float64 {
	return float64(op)*1e-6 + float64(n)*1e-9
}

func TestExecTimeCacheMemoizes(t *testing.T) {
	c := NewExecTimeCache()
	dev := &costDevice{fakeDevice{name: "cpu"}}
	a := c.ExecTime(dev, vop.OpSobel, 1024)
	b := c.ExecTime(dev, vop.OpSobel, 1024)
	if a != b {
		t.Fatalf("memoized value changed: %g vs %g", a, b)
	}
	if a != dev.ExecTime(vop.OpSobel, 1024) {
		t.Fatal("cached value differs from the cost model")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// Distinct shapes get distinct entries.
	c.ExecTime(dev, vop.OpSobel, 2048)
	c.ExecTime(dev, vop.OpGEMM, 1024)
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

// TestExecTimeCacheCapped streams more distinct shapes than the cap and
// checks the epoch flush: the map never exceeds DefaultExecTimeEntries and the
// eviction counter records the dropped entries (satellite: unbounded growth
// fix).
func TestExecTimeCacheCapped(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	base := telemetry.ExecCacheEvictions.Value()

	c := NewExecTimeCache()
	dev := &costDevice{fakeDevice{name: "cpu"}}
	for elems := 1; elems <= DefaultExecTimeEntries+100; elems++ {
		c.ExecTime(dev, vop.OpAdd, elems)
		if c.Len() > DefaultExecTimeEntries {
			t.Fatalf("cache grew past the cap: %d", c.Len())
		}
	}
	// One flush happened: the 4097th insert dropped the full map.
	if got := telemetry.ExecCacheEvictions.Value() - base; got != DefaultExecTimeEntries {
		t.Fatalf("evictions = %d, want %d", got, DefaultExecTimeEntries)
	}
	// Values remain correct across the flush.
	if got, want := c.ExecTime(dev, vop.OpAdd, 7), dev.ExecTime(vop.OpAdd, 7); got != want {
		t.Fatalf("post-flush value %g, want %g", got, want)
	}
}

// TestExecTimeCacheSized checks the configurable entry cap: a small cap
// flushes early, and non-positive caps fall back to the default.
func TestExecTimeCacheSized(t *testing.T) {
	c := NewExecTimeCacheSized(8)
	dev := &costDevice{fakeDevice{name: "cpu"}}
	for elems := 1; elems <= 100; elems++ {
		c.ExecTime(dev, vop.OpAdd, elems)
		if c.Len() > 8 {
			t.Fatalf("cache grew past its configured cap: %d", c.Len())
		}
	}
	if got, want := c.ExecTime(dev, vop.OpAdd, 3), dev.ExecTime(vop.OpAdd, 3); got != want {
		t.Fatalf("post-flush value %g, want %g", got, want)
	}
	for _, bad := range []int{0, -5} {
		if d := NewExecTimeCacheSized(bad); d.max != DefaultExecTimeEntries {
			t.Fatalf("NewExecTimeCacheSized(%d).max = %d, want default %d", bad, d.max, DefaultExecTimeEntries)
		}
	}
}

func TestExecTimeCacheCounters(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	hits0, miss0 := telemetry.ExecCacheHits.Value(), telemetry.ExecCacheMisses.Value()

	c := NewExecTimeCache()
	dev := &costDevice{fakeDevice{name: "cpu"}}
	c.ExecTime(dev, vop.OpSobel, 64) // miss
	c.ExecTime(dev, vop.OpSobel, 64) // hit
	c.ExecTime(dev, vop.OpSobel, 64) // hit

	if got := telemetry.ExecCacheHits.Value() - hits0; got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	if got := telemetry.ExecCacheMisses.Value() - miss0; got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
}

// TestTaskQueueInstrumentation checks the depth gauge and wait histogram the
// concurrent engine attaches per device queue.
func TestTaskQueueInstrumentation(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	reg := telemetry.NewRegistry()
	depth := reg.NewGauge("q_depth", "d")
	wait := reg.NewHistogram("q_wait", "w", telemetry.ExpBuckets(1e-9, 10, 12))

	q := NewTaskQueue[int]()
	q.Instrument(depth, wait)
	q.Push(1)
	q.Push(2)
	q.Push(3)
	if depth.Value() != 3 {
		t.Fatalf("depth after pushes = %d", depth.Value())
	}
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("Pop = %d, %v", v, ok)
	}
	if v, ok := q.StealIf(anyTask); !ok || v != 3 {
		t.Fatalf("Steal = %d, %v (steals take the tail)", v, ok)
	}
	if depth.Value() != 1 {
		t.Fatalf("depth after pop+steal = %d", depth.Value())
	}
	if wait.Count() != 2 {
		t.Fatalf("wait observations = %d, want 2", wait.Count())
	}
	q.PushFront(0)
	if v, ok := q.Pop(); !ok || v != 0 {
		t.Fatalf("PushFront not at head: %d, %v", v, ok)
	}
	if wait.Count() != 3 {
		t.Fatalf("wait observations = %d, want 3", wait.Count())
	}
	if depth.Value() != 1 {
		t.Fatalf("depth = %d, want 1", depth.Value())
	}
}

// TestTaskQueueUninstrumented checks the plain path still works and keeps no
// timestamp bookkeeping.
func TestTaskQueueUninstrumented(t *testing.T) {
	q := NewTaskQueue[int]()
	q.Push(1)
	q.Push(2)
	if len(q.enqueued) != 0 {
		t.Fatal("uninstrumented queue kept timestamps")
	}
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("Pop = %d, %v", v, ok)
	}
	if q.Pending() != 1 {
		t.Fatalf("Pending = %d", q.Pending())
	}
}
