package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnap is the process's CPU and allocation state at one instant.
type procSnap struct {
	user, sys     time.Duration
	gcCPU, allCPU float64 // runtime/metrics estimates, cpu-seconds
	mallocs       uint64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// cpuTime is the CPU time the process has used so far, user plus system.
// Time the machine gives to other processes or virtual machines is not in
// it, which makes it steadier than wall time on a shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapProc() procSnap {
	var p procSnap
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.user = time.Duration(ru.Utime.Nano())
		p.sys = time.Duration(ru.Stime.Nano())
	}
	metrics.Read(cpuSamples)
	p.gcCPU = cpuSamples[0].Value.Float64()
	p.allCPU = cpuSamples[1].Value.Float64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs
	return p
}

// recordProc fills the process and runtime ledger entries for the interval
// a→b, in which the workload completed ops operations.
func (r *run) recordProc(a, b procSnap, ops int64) {
	if ops <= 0 {
		return
	}
	cpu := (b.user - a.user) + (b.sys - a.sys)
	r.set("process.cpu_us_per_req", float64(cpu)/float64(ops)/1e3)
	if cpu > 0 {
		r.set("process.sys_share", float64(b.sys-a.sys)/float64(cpu))
	}
	if all := b.allCPU - a.allCPU; all > 0 {
		r.set("runtime.gc_cpu_share", (b.gcCPU-a.gcCPU)/all)
	}
	r.set("runtime.allocs_per_req", float64(b.mallocs-a.mallocs)/float64(ops))
}
