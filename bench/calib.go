package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Drift correction. On the shared 2-core box this was written on, a pure
// arithmetic loop takes the same time all day (15-second-window medians
// within 1.4 %), but anything that allocates and walks memory — which is
// all of our compiler and executor — runs up to twice as slow for
// minutes at a time with nothing else running in the VM: a neighbour on
// the host is using the memory system, or one of the two vCPUs. Over
// twenty-eight 15-second windows of a bad half hour the median of a
// synthetic compile ranged over 98 % and of a dyndist run over 73 %;
// divided by the median of a fixed plain-Go kernel timed in the same
// window they ranged over 15 % and 31 %.
//
// So every round also times refKernel, and every host time the benchmark
// reports is the measured median times the kernel's nominal time divided
// by the kernel's median in the same run: seconds as the reference box
// takes them when it is quiet. host.drift reports the factor that was
// divided out and every metric's raw median is printed and written to
// the -o file beside it. The kernel shares no code with fortd, so no
// change to fortd can move it.

// refNominal is the kernel's time, in seconds, in a process of its own on
// the quiet reference box on one P; refNominal2 that of two concurrent
// kernels on two Ps.
const (
	refNominal  = 0.0435
	refNominal2 = 0.090
)

var kernelKeys = func() []string {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "v" + strconv.Itoa(i)
	}
	return keys
}()

var kernelSink atomic.Uint64

// refKernel does a fixed amount of what the profiles of this repository
// are made of: string-keyed map updates, small short-lived allocations,
// and the collections they cause (74 MB per call).
func refKernel() {
	sum := 0.0
	for rep := 0; rep < 300; rep++ {
		m := map[string]float64{}
		for i := 0; i < 2000; i++ {
			k := kernelKeys[i&63]
			m[k] += float64(i)
			b := make([]float64, 8+i&15)
			b[0] = m[k]
			sum += b[0]
		}
	}
	kernelSink.Store(math.Float64bits(sum))
}

// kernelMain is the benchmark started with -kernel n -kernel-procs p: it
// times, n times and each after a collection, p concurrent kernels on p
// Ps, and prints the seconds one per line.
func kernelMain(runs, procs int) {
	runtime.GOMAXPROCS(procs)
	for i := 0; i < runs; i++ {
		runtime.GC()
		start := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refKernel()
			}()
		}
		wg.Wait()
		fmt.Println(time.Since(start).Seconds())
	}
}

// timeKernel times the kernel in a process of its own. What the kernel
// does — allocate, and collect — costs more the more live heap the
// process holds, and the benchmark's own heap holds the program under
// test (timed in-process, the kernel ran twice as slow beside
// compile_synth256's 257 procedures and ever slower as the service
// retained programs); a fresh process has the same heap every time, so
// only the host can move its time.
func timeKernel(runs, procs int) ([]float64, error) {
	if runs == 0 {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := exec.Command(self, "-kernel", strconv.Itoa(runs), "-kernel-procs", strconv.Itoa(procs)).Output()
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	var times []float64
	for _, line := range strings.Fields(string(out)) {
		t, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("reference kernel printed %q", line)
		}
		times = append(times, t)
	}
	return times, nil
}

// calibrate times the kernel beside the workload's current round, on as
// many Ps as the workload itself keeps busy: what takes a vCPU away from
// the service's two clients does not show on one P.
func (w *workload) calibrate() {
	procs := 1
	if w.svc != nil {
		procs = svcClients
	}
	times, err := timeKernel(w.cfg.kernelRuns, procs)
	if err != nil {
		w.check(err.Error())
	}
	w.kernel = append(w.kernel, times...)
}

// drift is how much slower than nominal the host ran the workload's
// kernel (1 when it was never timed, as in a smoke run).
func (w *workload) drift() float64 {
	if len(w.kernel) == 0 {
		return 1
	}
	if w.svc != nil {
		return median(w.kernel) / refNominal2
	}
	return median(w.kernel) / refNominal
}
