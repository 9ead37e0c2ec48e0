package main

import (
	"bufio"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident-set high-water mark, so rss_peak_mb reports the program's
// set-up and measured window rather than the benchmark's input
// generation and oracle. Where the kernel refuses the reset the mark
// simply covers the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// "5" clears VmHWM (Documentation/filesystems/proc: clear_refs).
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads VmHWM of this process in MB; zero where /proc does not
// provide it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a reading of the Go runtime's own counters. The
// process hosts the load generator and the server(s), so the deltas
// cover both sides.
type runtimeSample struct {
	gcCycles   uint64
	allocBytes uint64
	gcPauses   *metrics.Float64Histogram
	schedLat   *metrics.Float64Histogram
}

const (
	metricGCCycles = "/gc/cycles/total:gc-cycles"
	metricAlloc    = "/gc/heap/allocs:bytes"
	metricGCPauses = "/sched/pauses/total/gc:seconds"
	metricSchedLat = "/sched/latencies:seconds"
)

func readRuntime() runtimeSample {
	samples := []metrics.Sample{
		{Name: metricGCCycles}, {Name: metricAlloc}, {Name: metricGCPauses}, {Name: metricSchedLat},
	}
	metrics.Read(samples)
	var s runtimeSample
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.gcPauses = samples[2].Value.Float64Histogram()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		s.schedLat = samples[3].Value.Float64Histogram()
	}
	return s
}

// histDeltaQuantile returns the p-quantile, in seconds, of the samples a
// runtime histogram gained between two readings (upper bucket bound).
func histDeltaQuantile(before, after *metrics.Float64Histogram, p float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(p * float64(total))
	var seen uint64
	for i := range after.Counts {
		seen += after.Counts[i] - before.Counts[i]
		if seen > want {
			hi := after.Buckets[i+1]
			if hi > 1e9 { // +Inf bucket: report its finite lower bound
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-2]
}

// runtimeDelta fills the runtime.* per-layer metrics for a window of ops
// operations between two samples.
func runtimeDelta(out *outcome, before, after runtimeSample, ops int, goroutinesMax int) {
	out.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), 1)
	out.set("runtime.gc_pause_p99_us", histDeltaQuantile(before.gcPauses, after.gcPauses, 0.99)*1e6, 1)
	out.set("runtime.sched_latency_p99_us", histDeltaQuantile(before.schedLat, after.schedLat, 0.99)*1e6, 1)
	out.set("runtime.alloc_bytes_per_op", ratio(float64(after.allocBytes-before.allocBytes), float64(ops)), ops)
	out.set("runtime.goroutines_max", float64(goroutinesMax), 1)
}
