package interconnect

import (
	"math"
	"testing"
)

func TestTransferTime(t *testing.T) {
	l := Link{BandwidthBps: 1e9, LatencySec: 1e-6}
	got := l.TransferTime(1e6)
	want := 1e-6 + 1e6/1e9
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("transfer = %g want %g", got, want)
	}
	if l.TransferTime(0) != 0 || l.TransferTime(-5) != 0 {
		t.Fatal("non-positive payloads should cost nothing")
	}
	zero := Link{LatencySec: 2e-6}
	if zero.TransferTime(100) != 2e-6 {
		t.Fatal("zero-bandwidth link should cost latency only")
	}
}

func TestLaneSerialMatchesLegacyBaseline(t *testing.T) {
	// Without overlap the three stages serialize on the compute clock and the
	// full transfer time is exposed — the conventional-baseline numbers.
	var l Lane
	l.Reset(1)
	a := l.Admit(1, 0.5, 2, 4, 3, false)
	if a.Start != 1 || a.XferStart != 1.5 || a.XferEnd != 3.5 {
		t.Fatalf("serial schedule wrong: %+v", a)
	}
	if a.End != 10.5 || a.OutStart != 7.5 || a.OutEnd != 10.5 {
		t.Fatalf("serial completion wrong: %+v", a)
	}
	if a.Exposed != 5 {
		t.Fatalf("serial exposure = %g, want inT+outT = 5", a.Exposed)
	}
	if l.Makespan() != 10.5 || l.Drain() != 0 {
		t.Fatalf("serial lane state: makespan %g drain %g", l.Makespan(), l.Drain())
	}
}

func TestLaneOverlapHidesTransfers(t *testing.T) {
	var l Lane
	l.Reset(0)
	// First admission: nothing to hide behind, input fully exposed.
	a := l.Admit(0, 0, 2, 10, 1, true)
	if a.Exposed != 2 {
		t.Fatalf("first input should be fully exposed: %+v", a)
	}
	if a.End != 12 || a.OutEnd != 13 {
		t.Fatalf("first admission schedule: %+v", a)
	}
	// Second admission: its input transferred [2,4) while the first computed
	// until 12, so the compute stage never stalls.
	b := l.Admit(0, 0, 2, 10, 1, true)
	if b.Exposed != 0 {
		t.Fatalf("pipelined input should be hidden: %+v", b)
	}
	if b.Start != 12 || b.End != 22 {
		t.Fatalf("second admission schedule: %+v", b)
	}
	// The final output transfer is the one cost overlap cannot hide.
	if d := l.Drain(); d != 1 {
		t.Fatalf("drain = %g, want the out tail 1", d)
	}
	if l.Makespan() != 23 {
		t.Fatalf("makespan = %g, want compute 22 + out tail 1", l.Makespan())
	}
}

func TestLaneStolenInputSerializes(t *testing.T) {
	var l Lane
	l.Reset(0)
	l.Admit(0, 0, 1, 10, 0, true)
	// A stolen HLOP's ready is the thief's compute clock (the engines pass
	// lane.Compute): its input belonged to the victim's queue, so the
	// transfer cannot predate the steal decision and serializes in full.
	a := l.Admit(l.Compute, 0, 3, 5, 0, true)
	if a.XferStart != 11 {
		t.Fatalf("stolen input transferred before the steal: %+v", a)
	}
	if a.Exposed != 3 {
		t.Fatalf("stolen input should serialize in full: %+v", a)
	}
}

func TestLaneBoundedBuffersBackpressure(t *testing.T) {
	// Output transfers three times slower than compute: after BufferDepth
	// admissions every output slot holds an undrained result, so compute
	// stalls for the out lane instead of running ahead unboundedly.
	var l Lane
	l.Reset(0)
	var exposed float64
	for i := 0; i < 6; i++ {
		a := l.Admit(0, 0, 0, 1, 3, true)
		exposed += a.Exposed
	}
	// 6 outputs at 3s each serialize on the out lane: makespan ≈ 19 (first
	// compute ends at 1, then 6×3 of outbound), not 6×1 compute + tail.
	if l.Out != 19 {
		t.Fatalf("out clock = %g, want 19", l.Out)
	}
	if exposed == 0 {
		t.Fatal("out-slot backpressure should surface as exposure")
	}
	if l.Compute+l.Drain() != l.Makespan() {
		t.Fatalf("drain inconsistent: compute %g drain %g makespan %g", l.Compute, l.Drain(), l.Makespan())
	}
	// Compute may run ahead of the out lane by at most BufferDepth slots.
	if ahead := l.Out - l.Compute; ahead > 3*(BufferDepth+1) {
		t.Fatalf("compute ran %g ahead of the out lane", ahead)
	}
}

func TestLaneExposedNeverExceedsTransfer(t *testing.T) {
	// Structural invariant behind Report.Comm: summed exposure (including the
	// drain tail) never exceeds summed transfer time, for any admission mix.
	seq := []struct{ ready, dispatch, inT, exec, outT float64 }{
		{0, 0.1, 5, 1, 4}, {0, 0.1, 0.5, 2, 0}, {3, 0, 2, 0.1, 2},
		{3, 0.2, 0, 3, 1}, {9, 0.1, 4, 0.5, 4}, {9, 0, 1, 1, 1},
	}
	for _, overlap := range []bool{false, true} {
		var l Lane
		l.Reset(0)
		var exposed, xfer float64
		for _, s := range seq {
			a := l.Admit(s.ready, s.dispatch, s.inT, s.exec, s.outT, overlap)
			exposed += a.Exposed
			xfer += s.inT + s.outT
		}
		exposed += l.Drain()
		if exposed > xfer+1e-12 {
			t.Fatalf("overlap=%v: exposed %g > transfer %g", overlap, exposed, xfer)
		}
	}
}

func TestTracker(t *testing.T) {
	var tr Tracker
	tr.Add(100, 2, 1)
	tr.Add(50, 3, 0.5)
	if tr.Bytes != 150 || tr.TransferTime != 5 || tr.ExposedTime != 1.5 {
		t.Fatalf("tracker = %+v", tr)
	}
	var other Tracker
	other.Add(10, 1, 1)
	tr.Merge(other)
	if tr.Bytes != 160 || tr.ExposedTime != 2.5 {
		t.Fatalf("merged tracker = %+v", tr)
	}
	if got := tr.OverheadFraction(10); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("overhead = %g", got)
	}
	if tr.OverheadFraction(0) != 0 {
		t.Fatal("zero busy should yield zero overhead")
	}
}

func TestDefaultLinksSane(t *testing.T) {
	if HostDRAM.BandwidthBps != 25.6e9 {
		t.Fatalf("host DRAM bandwidth = %g, want the paper's 25.6 GB/s", HostDRAM.BandwidthBps)
	}
	if PCIeTPU.BandwidthBps <= 0 || PCIeTPU.LatencySec <= 0 {
		t.Fatal("PCIe link not configured")
	}
	if PCIeTPU.BandwidthBps >= HostDRAM.BandwidthBps {
		t.Fatal("PCIe should be slower than host DRAM")
	}
}
