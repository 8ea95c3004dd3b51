package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// spreadPct is (max-min)/median in percent.
func spreadPct(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * (s[len(s)-1] - s[0]) / quantile(s, 0.5)
}

var spinSink uint64

// spin is the host-noise canary: a fixed amount of pure-Go register-only
// work, so its time moves only when the host slows down. It runs four
// independent chains, because what slows this host down is contention for the
// core's execution units, which a single dependent chain barely feels.
func spin() time.Duration {
	t0 := time.Now()
	a, b, c, d := uint64(88172645463325252), uint64(2463534242), uint64(362436069), uint64(521288629)
	for i := 0; i < 2_000_000; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c = c*6364136223846793005 + 1442695040888963407
		d = d*2862933555777941757 + 3037000493
	}
	spinSink += a ^ b ^ c ^ d
	return time.Since(t0)
}

// canary times the spin loop a few times and returns the samples in ms.
func canary() []float64 {
	out := make([]float64, 5)
	for i := range out {
		out[i] = ms(spin())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// opSample is one op as the traced pass records it.
type opSample struct {
	class  int // index into the distinct requests; len(reqs) for a fresh shape
	start  time.Time
	rp     reply
	stages *wireStages // the reply's stage times, when it carried any
}

// sample is one successful op of a closed loop.
type sample struct {
	class int     // index into the distinct requests; len(reqs) for a fresh shape
	done  float64 // completion time, s since the loop began
	lat   float64 // ms
}

// loopStats is one closed loop: what the clients saw and what the process
// spent, the latter per successful op.
type loopStats struct {
	attempted, failed int
	shed              int     // failed with 429
	wall              float64 // longest client wall time, s
	samples           []sample
	allocMB, allocs   float64 // whole process, load generator included
	gcCycles          float64
	cpuS              float64
	heapPeakMB        float64
	reqMB, respMB     float64 // counted by the client
	clientMS          float64 // harness time per op outside the system
	firstErr          error
}

func (s loopStats) ok() int { return s.attempted - s.failed }

// runLoop drives the deployment closed-loop: every client walks its cycle
// again and again, waiting for each reply before it sends the next request.
// With dur > 0 the clients stop at the first op boundary after dur (the mix
// is then exact to within one cycle); with dur == 0 each sends exactly nOps
// ops (set-up's warm-up, a whole number of cycles). keep, when set, receives
// every successful op with its reply (the traced pass).
func runLoop(d *deployment, clients []*client, cycles [][]int, reqs []*request, fresh *freshPool, dur time.Duration, nOps int, keep func(opSample)) loopStats {
	type clientOut struct {
		samples   []sample
		attempted int
		failed    int
		shed      int
		wall      float64
		reqB      int64
		respB     int64
		err       error
	}
	outs := make([]clientOut, len(clients))
	var keepMu sync.Mutex
	for _, c := range clients {
		c.harness = 0
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			o := &outs[ci]
			o.samples = make([]sample, 0, 4096)
			for n := 0; dur > 0 || n < nOps; n++ {
				if dur > 0 && time.Since(start) >= dur {
					break
				}
				slot := cycles[ci][n%len(cycles[ci])]
				var rp reply
				var err error
				t0 := time.Now()
				class := slot
				if slot < 0 {
					class = len(reqs)
					rp, err = c.doFresh(fresh)
				} else {
					rp, err = c.do(reqs[slot], keep != nil)
				}
				o.attempted++
				if err != nil || rp.status != http.StatusOK {
					o.failed++
					if rp.status == http.StatusTooManyRequests {
						o.shed++
					}
					if o.err == nil {
						if err == nil {
							err = fmt.Errorf("http %d", rp.status)
						}
						o.err = fmt.Errorf("client %d slot %d: %w", ci, slot, err)
					}
					continue
				}
				o.samples = append(o.samples, sample{class, time.Since(start).Seconds(), ms(rp.latency)})
				o.reqB += int64(rp.reqBytes)
				o.respB += int64(rp.respBytes)
				if keep != nil {
					keepMu.Lock()
					keep(opSample{class: class, start: t0, rp: rp})
					keepMu.Unlock()
				}
			}
			o.wall = time.Since(start).Seconds()
		}(ci, c)
	}
	wg.Wait()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)

	var st loopStats
	var reqB, respB int64
	var harness time.Duration
	for i, o := range outs {
		st.attempted += o.attempted
		st.failed += o.failed
		st.shed += o.shed
		if o.wall > st.wall {
			st.wall = o.wall
		}
		st.samples = append(st.samples, o.samples...)
		reqB += o.reqB
		respB += o.respB
		harness += clients[i].harness
		if st.firstErr == nil {
			st.firstErr = o.err
		}
	}
	n := float64(st.ok())
	if n == 0 {
		return st
	}
	st.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n
	st.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	st.gcCycles = float64(m1.NumGC-m0.NumGC) / n
	st.cpuS = (cpu1 - cpu0) / n
	st.heapPeakMB = float64(m1.HeapSys) / 1e6
	st.reqMB = float64(reqB) / 1e6 / n
	st.respMB = float64(respB) / 1e6 / n
	st.clientMS = ms(harness) / n
	return st
}

// nSlices is how many equal time slices a loop is cut into for the host
// report.
const nSlices = 10

// quietQ is the quantile of a request's latencies that stands for its latency
// on a quiet host. The lower the steadier (README, "Host"); the minimum itself
// would be blind to everything but the shortest path — on serve_small it is
// the lucky request that joins a round whose linger is about to expire.
const quietQ = 0.02

// wallStats are a loop's wall-clock figures.
type wallStats struct {
	// quietLatency is the end-to-end metric latency_quiet_ms: the mix-weighted
	// mean over the distinct requests of each one's quietQ latency.
	quietLatency float64 // ms
	minClassN    int     // fewest samples any request has
	quietOpShare float64 // share of ops within 15 % of their request's quietQ latency
	// As measured over every op, host episodes included.
	throughput float64 // 1/s: successful ops ÷ wall time of the loop
	p50, p95   float64 // ms
	beyond     int     // ops slower than p95
	sliceThr   []float64
}

// analyze turns a loop's samples into its wall-clock figures.
//
// This host slows the program down 1.3-1.8x in bursts that come in episodes
// of seconds and in periods of many minutes (README, "Host"), so throughput
// and the p50 and p95 of latency as measured differ by a quarter between two
// runs of the same code, over the whole loop and over any part of it long
// enough to hold the mix. What stays put is the fast end of each request's
// latency distribution: even in a slow period some ops run undisturbed. The
// one wall-clock end-to-end metric is therefore built from the quietQ
// quantile of every distinct request's own latencies, its latency on a quiet
// host. It sees a cost that every op of a request pays and is blind to one
// that only some pay; the figures as measured see both and repeat to a
// quarter, so they are reported beside it and carry no bound.
func analyze(st loopStats, nClasses int) wallStats {
	ws := wallStats{sliceThr: make([]float64, nSlices)}
	n := len(st.samples)
	if n == 0 || st.wall <= 0 {
		return ws
	}
	perClass := make([][]float64, nClasses)
	all := make([]float64, 0, n)
	for _, s := range st.samples {
		perClass[s.class] = append(perClass[s.class], s.lat)
		all = append(all, s.lat)
		if i := int(s.done / st.wall * nSlices); i < nSlices {
			ws.sliceThr[i] += nSlices / st.wall
		}
	}
	quiet := make([]float64, nClasses)
	ws.minClassN = n
	for c, xs := range perClass {
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		quiet[c] = quantile(xs, quietQ)
		ws.quietLatency += quiet[c] * float64(len(xs)) / float64(n)
		if len(xs) < ws.minClassN {
			ws.minClassN = len(xs)
		}
	}
	for _, s := range st.samples {
		if s.lat <= 1.15*quiet[s.class] {
			ws.quietOpShare += 1 / float64(n)
		}
	}
	sort.Float64s(all)
	ws.throughput = float64(n) / st.wall
	ws.p50 = quantile(all, 0.50)
	ws.p95 = quantile(all, 0.95)
	ws.beyond = n - sort.SearchFloat64s(all, math.Nextafter(ws.p95, math.Inf(1)))
	return ws
}
