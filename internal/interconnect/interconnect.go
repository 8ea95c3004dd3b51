// Package interconnect models the system interconnect of the prototype
// platform: CPU, GPU and Edge TPU exchange data through shared LPDDR4 main
// memory (25.6 GB/s) and the on-board PCIe link to the M.2 Edge TPU (§4.1).
//
// The model captures the two behaviours the evaluation depends on:
//
//   - Per-transfer cost = latency + bytes/bandwidth (Table 3's communication
//     overhead).
//   - Double buffering: when a policy overlaps transfers with computation,
//     only the part of the transfer not hidden behind the previous HLOP's
//     execution is exposed (§5.6 reason 2: "double buffering to hide the
//     latency").
package interconnect

// Link describes one path between host memory and a device.
type Link struct {
	// BandwidthBps is sustained bandwidth in bytes per second.
	BandwidthBps float64
	// LatencySec is the fixed per-transfer setup cost.
	LatencySec float64
}

// TransferTime returns the modelled duration to move n bytes.
func (l Link) TransferTime(n int64) float64 {
	if n <= 0 {
		return 0
	}
	if l.BandwidthBps <= 0 {
		return l.LatencySec
	}
	return l.LatencySec + float64(n)/l.BandwidthBps
}

// Default links for the prototype platform.
var (
	// HostDRAM: LPDDR4 at 25.6 GB/s, on-chip access for CPU and the
	// integrated Maxwell GPU.
	HostDRAM = Link{BandwidthBps: 25.6e9, LatencySec: 2e-6}
	// PCIeTPU: the M.2 Edge TPU's effective DMA path. The raw PCIe Gen2 x1
	// lane is slower, but INT8 activations are 4-8x smaller than host FP32
	// data and the runtime pipelines descriptor submission; the effective
	// aggregate rate is calibrated so Table 3's measured <1% communication
	// overhead holds — the paper's own measurement implies the link does
	// not bottleneck the Edge TPU at the evaluated granularities.
	PCIeTPU = Link{BandwidthBps: 4e9, LatencySec: 20e-6}
	// ClusterNet: the network tier between a router and a shmtserved backend
	// node — modelled as 10 GbE (1.25 GB/s effective) with a
	// request/response setup cost covering connection reuse, HTTP framing
	// and JSON marshalling. The router's scatter-gather planner prices
	// cross-node HLOP placement with this link exactly the way the
	// in-process scheduler prices device transfers with HostDRAM/PCIeTPU.
	ClusterNet = Link{BandwidthBps: 1.25e9, LatencySec: 200e-6}
)

// Lane is one device's two-stage pipeline in virtual time: a transfer stage
// (the DMA engine, with independent inbound and outbound queues — links are
// full duplex) and a compute stage. Each clock holds the virtual time at
// which that stage next becomes free. An input transfer occupies the inbound
// clock, and only the part of it that the compute stage actually has to wait
// for is exposed.
type Lane struct {
	// In is the inbound (host→device) transfer clock.
	In float64
	// Out is the outbound (device→host) transfer clock.
	Out float64
	// Compute is the compute-stage clock.
	Compute float64

	// Double buffering is double, not unbounded: the device owns BufferDepth
	// staging slots per direction, so the k-th admission's input transfer
	// cannot begin before admission k−BufferDepth released its input slot
	// (compute consumed it), and its compute cannot begin before admission
	// k−BufferDepth's output transfer released its output slot. The rings
	// hold those release times; idx is the admission counter mod BufferDepth.
	inFree  [BufferDepth]float64
	outFree [BufferDepth]float64
	idx     int
}

// BufferDepth is the per-direction staging-slot count of the double buffer:
// one slot in flight, one being filled/drained.
const BufferDepth = 2

// Admission is the schedule Lane.Admit produced for one HLOP.
type Admission struct {
	// XferStart/XferEnd bound the input transfer on the inbound lane.
	XferStart, XferEnd float64
	// Start is when the device's slot for this HLOP begins: the later of the
	// compute stage freeing and the HLOP becoming available. End is when the
	// compute stage finishes (dispatch + execution). Busy time for the HLOP
	// is End - Start; it includes any exposed input stall.
	Start, End float64
	// OutStart/OutEnd bound the output transfer on the outbound lane.
	OutStart, OutEnd float64
	// Exposed is the transfer time the compute stage stalled for: the gap
	// between when it could have started (Start) and when the input actually
	// arrived. Outbound transfers never stall the next HLOP's compute (the
	// double buffer decouples them); whatever outbound time the final compute
	// does not hide surfaces through Drain.
	Exposed float64
}

// Reset rewinds every stage clock to t (the start-of-run scheduling
// overhead) and empties the staging slots.
func (l *Lane) Reset(t float64) {
	l.In, l.Out, l.Compute = t, t, t
	l.inFree = [BufferDepth]float64{}
	l.outFree = [BufferDepth]float64{}
	l.idx = 0
}

// Admit schedules one HLOP through the lane and advances the stage clocks.
// ready is when the HLOP became available to this device: enqueue time for
// own-queue work, the thief's clock for a steal — a stolen HLOP's input
// belonged to the victim's queue, so its transfer cannot have been issued
// ahead of the steal decision and serializes in full.
//
// With overlap (double buffering) the input transfer runs on the inbound
// clock, possibly ahead of the compute stage; compute waits for whichever of
// its own clock and the data is later; the output occupies the outbound
// clock behind the compute. Without overlap the three stages serialize on
// the compute clock, reproducing the conventional baseline.
func (l *Lane) Admit(ready, dispatch, inT, exec, outT float64, overlap bool) Admission {
	if !overlap {
		start := max(l.Compute, ready)
		a := Admission{Start: start}
		a.XferStart = start + dispatch
		a.XferEnd = a.XferStart + inT
		a.End = a.XferEnd + exec + outT
		a.OutStart = a.XferEnd + exec
		a.OutEnd = a.End
		a.Exposed = inT + outT
		l.In, l.Out, l.Compute = a.End, a.End, a.End
		l.inFree[l.idx], l.outFree[l.idx] = a.End, a.End
		l.idx = (l.idx + 1) % BufferDepth
		return a
	}
	a := Admission{XferStart: max(l.In, ready, l.inFree[l.idx])}
	a.XferEnd = a.XferStart + inT
	a.Start = max(l.Compute, ready)
	// Compute waits for its input and for an output slot: with every slot
	// holding an undrained result, running ahead would overwrite one — the
	// backpressure that keeps an out-link-bound device from looking free.
	compStart := max(a.Start, a.XferEnd, l.outFree[l.idx])
	a.Exposed = compStart - a.Start
	a.End = compStart + dispatch + exec
	a.OutStart = max(l.Out, a.End)
	a.OutEnd = a.OutStart + outT
	l.In, l.Compute, l.Out = a.XferEnd, a.End, a.OutEnd
	l.inFree[l.idx], l.outFree[l.idx] = a.End, a.OutEnd
	l.idx = (l.idx + 1) % BufferDepth
	return a
}

// Drain returns the outbound-transfer tail still in flight after the
// compute stage went idle — the only outbound exposure the pipeline cannot
// hide. Call it once per device at end of run and account the result as
// exposed communication time.
func (l *Lane) Drain() float64 {
	if l.Out > l.Compute {
		return l.Out - l.Compute
	}
	return 0
}

// Makespan returns the lane's completion time: the later of the compute
// stage and the last outbound transfer.
func (l *Lane) Makespan() float64 { return max(l.Compute, l.Out) }

// Tracker accumulates transfer accounting for Table 3.
type Tracker struct {
	Bytes        int64   // payload moved
	TransferTime float64 // raw link time
	ExposedTime  float64 // portion not hidden by double buffering
}

// Add records one transfer.
func (t *Tracker) Add(bytes int64, transfer, exposed float64) {
	t.Bytes += bytes
	t.TransferTime += transfer
	t.ExposedTime += exposed
}

// Merge folds another tracker into this one.
func (t *Tracker) Merge(o Tracker) {
	t.Bytes += o.Bytes
	t.TransferTime += o.TransferTime
	t.ExposedTime += o.ExposedTime
}

// OverheadFraction returns exposed communication time as a fraction of
// total busy time (Table 3's "Communication Overhead (%)"), 0 when busy is 0.
func (t *Tracker) OverheadFraction(totalBusy float64) float64 {
	if totalBusy <= 0 {
		return 0
	}
	return t.ExposedTime / totalBusy
}
