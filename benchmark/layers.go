package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"amrt"
	"amrt/internal/campaign"
	"amrt/internal/experiment"
	"amrt/internal/faults"
	"amrt/internal/metrics"
	"amrt/internal/netsim"
	"amrt/internal/server"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/trace"
	"amrt/internal/transport"
	"amrt/internal/workload"
)

// layerSizes scales the layer measurements: full is what the traced
// run reports, quick is what the test runs.
type layerSizes struct {
	samples      int // per timing; the reported value is the median
	runSamples   int // per timing that is a whole simulation
	events       int // scheduler dispatches per sample
	ops          int // iterations of a nanosecond-scale call per sample
	packets      int // packets per forwarding sample
	bulkBytes    int64
	smallFlows   int
	telFlows     int // flows of the telemetry on/off input
	telHorizon   time.Duration
	shardK       int
	shardFlows   int
	genFlows     int
	cacheKeys    int
	points       int // points of the orchestration-only campaign
	jobs, ledger int // daemon round trips, finished jobs replayed
	// tracedMinWall is the reference wall time, in seconds, the traced
	// run's repeats of the workload add up to at least.
	tracedMinWall float64
}

var fullLayers = layerSizes{
	samples: 7, runSamples: 3, events: 1 << 18, ops: 200_000, packets: 20_000,
	bulkBytes: 512 << 10, smallFlows: 1000, telFlows: 40, telHorizon: 20 * time.Second,
	shardK: 8, shardFlows: 512, genFlows: 10_000,
	cacheKeys: 128, points: 2000, jobs: 50, ledger: 200,
	tracedMinWall: 1,
}

var quickLayers = layerSizes{
	samples: 2, runSamples: 1, events: 1 << 12, ops: 2000, packets: 500,
	bulkBytes: 32 << 10, smallFlows: 40, telFlows: 6, telHorizon: 20 * time.Millisecond,
	shardK: 4, shardFlows: 32, genFlows: 200,
	cacheKeys: 8, points: 50, jobs: 3, ledger: 5,
}

// layers collects the per-layer numbers, each taken from outside by
// timing calls into a package's exported functions.
type layers struct {
	sz       layerSizes
	scratch  string
	values   map[string]float64
	breaches []string
}

func (l *layers) set(name string, v float64) { l.values[name] = v }

func (l *layers) breach(format string, args ...any) {
	l.breaches = append(l.breaches, fmt.Sprintf(format, args...))
}

// measureLayers runs every workload-independent layer measurement.
func measureLayers(sz layerSizes, scratch string) (map[string]float64, []string, error) {
	l := &layers{sz: sz, scratch: scratch, values: map[string]float64{}}
	for _, step := range []func() error{
		l.sim, l.forwarding, l.sharding, l.transport, l.stacks,
		l.telemetry, l.faults, l.setup, l.campaign, l.server,
	} {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	return l.values, l.breaches, nil
}

// timeNs reports the wall time of fn in nanoseconds per op.
func timeNs(ops int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// mallocsDuring reports the heap objects and bytes allocated by fn.
func mallocsDuring(fn func()) (objects, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// hold sets up the hold model on a fresh engine — pending events, each
// rescheduling itself a pseudo-random 1 ns – 131 µs ahead — and returns
// the function that dispatches until total events have run. Only that
// function is timed: it allocates nothing the engine does not.
func hold(kind sim.SchedulerKind, pending, total int) (dispatch func()) {
	eng := sim.NewEngineWith(kind)
	rng := uint64(0x9E3779B97F4A7C15)
	delay := func() sim.Time {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return sim.Time(1 + rng%(1<<17))
	}
	scheduled := pending
	fns := make([]func(), pending)
	for i := range fns {
		i := i
		fns[i] = func() {
			if scheduled < total {
				scheduled++
				eng.Schedule(delay(), fns[i])
			}
		}
		eng.Schedule(delay(), fns[i])
	}
	return func() { eng.RunAll() }
}

func (l *layers) sim() error {
	n := l.sz.events
	for _, c := range []struct {
		name    string
		kind    sim.SchedulerKind
		pending int
	}{
		{"sim.hold_ns_wheel_64k", sim.SchedulerWheel, 1 << 16},
		{"sim.hold_ns_heap_64k", sim.SchedulerHeap, 1 << 16},
		{"sim.hold_ns_wheel_64", sim.SchedulerWheel, 64},
		{"sim.hold_ns_heap_64", sim.SchedulerHeap, 64},
	} {
		c := c
		if c.pending > n/4 {
			c.pending = n / 4
		}
		l.set(c.name, medianOf(l.sz.samples, func() float64 {
			return timeNs(n, hold(c.kind, c.pending, n))
		}))
	}
	objects, _ := mallocsDuring(hold(sim.SchedulerWheel, n/4, n))
	l.set("sim.allocs_per_event", objects/float64(n))

	noop := func() {}
	l.set("sim.timer_churn_ns", medianOf(l.sz.samples, func() float64 {
		eng := sim.NewEngine()
		return timeNs(l.sz.ops, func() {
			for i := 0; i < l.sz.ops; i++ {
				t := eng.Schedule(sim.Millisecond, noop)
				t.Cancel()
				if i%1024 == 1023 {
					eng.Run(eng.Now() + 2*sim.Millisecond) // drain the cancelled events
				}
			}
			eng.RunAll()
		})
	}))
	l.set("sim.keyed_ns", medianOf(l.sz.samples, func() float64 {
		eng := sim.NewEngine()
		return timeNs(l.sz.ops, func() {
			for i := 0; i < l.sz.ops; i++ {
				eng.ScheduleKeyed(sim.Time(1+i/1024)*sim.Microsecond, uint64(i), noop)
			}
			eng.RunAll()
		})
	}))
	return nil
}

// fabricRate and fabricDelay are the link parameters of the hand-built
// forwarding fabrics: the default leaf–spine's.
const (
	fabricRate  = 10 * sim.Gbps
	fabricDelay = 12500 * sim.Nanosecond
)

func switchQueue() netsim.Queue { return netsim.NewDropTail(128) }

// newFabric returns an empty network with delivery jitter set as the
// topo builders set it.
func newFabric() *netsim.Network {
	net := netsim.New()
	net.SetJitter(fabricRate.TxTime(netsim.MSS)/2, 1)
	return net
}

// chain builds h0 – s0 – … – s(n-1) – h1 with routes toward h1 and no
// transport: Host.Handler stays nil, so a run measures ports, queues
// and switches only. first is s0's egress port.
func chain(nsw int) (net *netsim.Network, src, dst *netsim.Host, first *netsim.Port) {
	net = newFabric()
	src, dst = net.NewHost("h0"), net.NewHost("h1")
	sws := make([]*netsim.Switch, nsw)
	for i := range sws {
		sws[i] = net.NewSwitch(fmt.Sprintf("s%d", i))
	}
	// The whole burst is injected at time zero, so h0's NIC queue is
	// unbounded (nil); every switch port has the bounded drop-tail.
	net.Connect(src, sws[0], fabricRate, fabricDelay, nil, switchQueue())
	for i, sw := range sws {
		var next netsim.Node = dst
		if i+1 < nsw {
			next = sws[i+1]
		}
		out, _ := net.Connect(sw, next, fabricRate, fabricDelay, switchQueue(), switchQueue())
		sw.AddRoute(dst.ID(), out)
		if i == 0 {
			first = out
		}
	}
	return net, src, dst, first
}

// diamond builds h0 – s0 = {m0..m3} = s1 – h1: four equal-cost next
// hops at s0, so every packet takes the ECMP hash path.
func diamond() (net *netsim.Network, src, dst *netsim.Host) {
	net = newFabric()
	src, dst = net.NewHost("h0"), net.NewHost("h1")
	s0, s1 := net.NewSwitch("s0"), net.NewSwitch("s1")
	net.Connect(src, s0, fabricRate, fabricDelay, nil, switchQueue())
	for i := 0; i < 4; i++ {
		m := net.NewSwitch(fmt.Sprintf("m%d", i))
		up, _ := net.Connect(s0, m, fabricRate, fabricDelay, switchQueue(), switchQueue())
		down, _ := net.Connect(m, s1, fabricRate, fabricDelay, switchQueue(), switchQueue())
		s0.AddRoute(dst.ID(), up)
		m.AddRoute(dst.ID(), down)
	}
	last, _ := net.Connect(s1, dst, fabricRate, fabricDelay, switchQueue(), nil)
	s1.AddRoute(dst.ID(), last)
	return net, src, dst
}

// blast injects n data packets of the given size at h0 and runs the
// network until they are delivered.
func blast(net *netsim.Network, src, dst *netsim.Host, n, size int) error {
	for i := 0; i < n; i++ {
		pkt := netsim.NewPacket()
		pkt.Flow, pkt.Type, pkt.Seq = netsim.FlowID(1+i%64), netsim.Data, int32(i)
		pkt.Size, pkt.Src, pkt.Dst = size, src.ID(), dst.ID()
		src.Send(pkt)
	}
	net.Run(sim.Forever)
	if got := dst.RxPackets; got != int64(n) {
		return fmt.Errorf("forwarding: %d of %d packets delivered", got, n)
	}
	return nil
}

func (l *layers) forwarding() error {
	var err error
	hop := func(size int) float64 {
		return medianOf(l.sz.samples, func() float64 {
			net, src, dst, _ := chain(4)
			return timeNs(l.sz.packets*5, func() {
				if e := blast(net, src, dst, l.sz.packets, size); e != nil {
					err = e
				}
			})
		})
	}
	l.set("netsim.hop_ns_64B", hop(netsim.ControlSize))
	l.set("netsim.hop_ns_1500B", hop(netsim.MSS))
	l.set("netsim.ecmp_hop_ns", medianOf(l.sz.samples, func() float64 {
		net, src, dst := diamond()
		return timeNs(l.sz.packets*4, func() {
			if e := blast(net, src, dst, l.sz.packets, netsim.MSS); e != nil {
				err = e
			}
		})
	}))
	net, src, dst, port := chain(4)
	objects, bytes := mallocsDuring(func() {
		if e := blast(net, src, dst, l.sz.packets, netsim.MSS); e != nil {
			err = e
		}
	})
	l.set("netsim.allocs_per_hop", objects/float64(l.sz.packets*5))
	l.set("netsim.bytes_per_hop", bytes/float64(l.sz.packets*5))
	if err != nil {
		return err
	}

	// port has carried traffic, so the marker takes its gap-comparison
	// path.
	pkt := &netsim.Packet{Type: netsim.Data, Size: netsim.MSS}
	marker := netsim.NewAntiECNMarker()
	now := net.Engine.Now()
	l.set("netsim.marker_ns", medianOf(l.sz.samples, func() float64 {
		return timeNs(l.sz.ops, func() {
			for i := 0; i < l.sz.ops; i++ {
				pkt.CE = true
				marker.OnDequeue(port, pkt, now+sim.Time(i))
			}
		})
	}))
	for _, q := range []struct {
		name string
		q    netsim.Queue
	}{
		{"netsim.queue_ns_droptail", netsim.NewDropTail(128)},
		{"netsim.queue_ns_priority", netsim.NewPriority(128)},
		{"netsim.queue_ns_trimming", netsim.NewTrimming(8, 1024)},
	} {
		q := q
		l.set(q.name, medianOf(l.sz.samples, func() float64 {
			return timeNs(l.sz.ops, func() {
				for i := 0; i < l.sz.ops; i++ {
					q.q.Enqueue(pkt, 0)
					q.q.Dequeue()
				}
			})
		}))
	}
	return nil
}

// sharding compares the fat-tree incast at one shard and at two.
func (l *layers) sharding() error {
	r := runSpec{proto: "AMRT", dist: "WebSearch", load: 0.6, flows: l.sz.shardFlows, seed: 1,
		fattreeK: l.sz.shardK, incastDegree: l.sz.shardK * 2, incastBytes: 64 << 10,
		timeout: 200 * time.Millisecond}
	var wall, cpu [3][]float64
	var results [3]amrt.Result
	for i := 0; i < l.sz.runSamples; i++ {
		for _, shards := range []int{1, 2} {
			r.shards = shards
			cfg := r.config()
			s, err := measure(func() error {
				var err error
				results[shards], err = amrt.RunContext(context.Background(), cfg)
				return err
			})
			if err != nil {
				return err
			}
			wall[shards] = append(wall[shards], s.WallS)
			cpu[shards] = append(cpu[shards], s.CPUS)
		}
	}
	if results[1] != results[2] {
		l.breach("fat-tree incast: Shards:2 result %+v differs from Shards:1 %+v", results[2], results[1])
	}
	speedup := median(wall[1]) / median(wall[2])
	l.set("netsim.shard_speedup_2", speedup)
	l.set("netsim.shard_efficiency_2", speedup/2)
	l.set("netsim.shard_cpu_ratio_2", median(cpu[2])/median(cpu[1]))
	return nil
}

func (l *layers) transport() error {
	kicks := l.sz.ops
	pace := func() {
		eng := sim.NewEngine()
		n := 0
		p := transport.NewPacer(eng, 100*sim.Nanosecond, func() bool { n++; return n < kicks })
		p.Kick()
		eng.RunAll()
	}
	l.set("transport.pacer_kick_ns", medianOf(l.sz.samples, func() float64 { return timeNs(kicks, pace) }))
	objects, _ := mallocsDuring(pace)
	l.set("transport.pacer_allocs_per_kick", objects/float64(kicks))

	net, src, dst, _ := chain(1)
	k := transport.NewKernel(net, transport.Config{})
	f := k.NewFlow(1, src, dst, 1<<30, 0)
	l.set("transport.newdata_ns", medianOf(l.sz.samples, func() float64 {
		return timeNs(l.sz.ops, func() {
			for i := 0; i < l.sz.ops; i++ {
				netsim.ReleasePacket(k.NewData(f, int32(i), 0))
			}
		})
	}))
	return nil
}

// smallFabric is the smallest leaf–spine the builder accepts that still
// has a spine hop: 2 leaves × 1 spine × 2 hosts.
func smallFabric() topo.LeafSpineConfig {
	c := topo.DefaultLeafSpine()
	c.Leaves, c.Spines, c.HostsPerLeaf = 2, 1, 2
	return c
}

// stacks times every registered stack on long flows (per-packet cost)
// and on many tiny flows (per-flow lifecycle cost).
func (l *layers) stacks() error {
	b := smallFabric()
	var bulk []workload.FlowSpec
	for i := 0; i < 16; i++ {
		bulk = append(bulk, workload.FlowSpec{ID: netsim.FlowID(i + 1), Src: i % 4, Dst: (i + 2) % 4,
			Size: l.sz.bulkBytes, Start: sim.Time(i) * sim.Microsecond})
	}
	small := workload.GeneratePoisson(workload.PoissonConfig{Hosts: b.Hosts(), Load: 0.5, HostRate: b.AccessRate(),
		Dist: workload.Fixed(2048), Count: l.sz.smallFlows, Seed: 1})
	pkts := float64(16 * ((l.sz.bulkBytes + netsim.MSS - 1) / netsim.MSS))
	for _, s := range stackPkgs {
		st := mustStack(s.stack)
		run := func(flows []workload.FlowSpec) (float64, error) {
			var err error
			wall := medianOf(l.sz.runSamples, func() float64 {
				return timeNs(1, func() {
					var res experiment.RunResult
					res, err = experiment.LeafSpineRun{Topo: b, Stack: st, Flows: flows}.RunE()
					if err == nil && res.Completed != res.Total {
						err = fmt.Errorf("%s: %d of %d flows completed", s.stack, res.Completed, res.Total)
					}
				})
			})
			return wall, err
		}
		wall, err := run(bulk)
		if err != nil {
			return err
		}
		l.set(s.pkg+".bulk_ns_per_pkt", wall/pkts)
		if wall, err = run(small); err != nil {
			return err
		}
		l.set(s.pkg+".small_us_per_flow", wall/1e3/float64(len(small)))
	}
	return nil
}

// telemetry measures what -metrics, -audit and -trace cost: the pass
// wall with the option on over the pass wall with it off, on the
// leafspine_websearch inputs at a reduced flow count.
func (l *layers) telemetry() error {
	r := runSpec{proto: "AMRT", dist: "WebSearch", load: 0.5, flows: l.sz.telFlows, seed: 1, timeout: l.sz.telHorizon}
	b := r.builder()
	flows := r.flowSpecs(b)
	base := experiment.LeafSpineRun{Topo: b, Stack: mustStack("AMRT"), Flows: flows, Horizon: sim.FromDuration(r.timeout)}
	var reg *metrics.Registry
	var rec *trace.Recorder
	var audited experiment.RunResult
	variants := []struct {
		name string
		run  func() (experiment.RunResult, error)
	}{
		{"off", func() (experiment.RunResult, error) { return base.RunE() }},
		{"metrics", func() (experiment.RunResult, error) {
			run := base
			reg = metrics.NewRegistry()
			run.Metrics = reg
			return run.RunE()
		}},
		{"audit", func() (res experiment.RunResult, err error) {
			run := base
			run.Audit = true
			audited, err = run.RunE()
			return audited, err
		}},
		{"trace", func() (experiment.RunResult, error) {
			run := base
			rec = &trace.Recorder{MaxEvents: 4 << 20}
			run.Trace = rec
			return run.RunE()
		}},
	}
	walls := map[string][]float64{}
	var ref simStats
	for i := 0; i < l.sz.runSamples; i++ {
		for _, v := range variants {
			var res experiment.RunResult
			s, err := measure(func() error {
				var err error
				res, err = v.run()
				return err
			})
			if err != nil {
				return err
			}
			walls[v.name] = append(walls[v.name], s.WallS)
			if st := runStats(res); v.name == "off" && i == 0 {
				ref = st
			} else if st != ref {
				l.breach("telemetry %s changed the simulated statistics: %+v, want %+v", v.name, st, ref)
			}
		}
	}
	off := median(walls["off"])
	for _, name := range []string{"metrics", "audit", "trace"} {
		l.set(name+".overhead_ratio", median(walls[name])/off)
	}
	ms := func(write func(io.Writer) error) (float64, error) {
		var err error
		v := medianOf(l.sz.samples, func() float64 {
			return timeNs(1, func() {
				if e := write(io.Discard); e != nil {
					err = e
				}
			}) / 1e6
		})
		return v, err
	}
	for _, d := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"metrics.dump_json_ms", reg.WriteJSON},
		{"metrics.dump_csv_ms", reg.WriteCSV},
		{"trace.write_csv_ms", rec.WriteCSV},
	} {
		v, err := ms(d.write)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		l.set(d.name, v)
	}
	l.set("trace.events", float64(len(rec.Events)))
	l.set("audit.checks", float64(audited.AuditChecks))
	l.set("audit.violations", float64(audited.AuditViolations))
	if audited.AuditViolations != 0 {
		l.breach("auditor reported %d violations", audited.AuditViolations)
	}
	return nil
}

// faultSpec is the FaultInjection case of cmd/bench: a periodic uplink
// flap plus Gilbert–Elliott bursty loss.
const faultSpec = "link=edge0.0->agg0.0,down=1ms,up=2ms,period=4ms;" +
	"burst-loss=tobad:0.003,togood:0.2,bad:0.5"

func (l *layers) faults() error {
	b := topo.DefaultFatTree()
	flows := workload.GenerateIncast(workload.IncastConfig{Hosts: b.Hosts(), Degree: 8, Bytes: 64 << 10,
		Load: 0.6, HostRate: b.HostRate, Count: l.sz.shardFlows / 2, Seed: 1})
	run := func(spec string) (float64, error) {
		var err error
		wall := medianOf(l.sz.runSamples, func() float64 {
			r := experiment.LeafSpineRun{Topo: b, Stack: mustStack("AMRT"), Flows: flows, Horizon: 20 * sim.Millisecond}
			if spec != "" {
				r.Faults = faults.MustParse(spec)
				r.Faults.Seed = 1
			}
			return timeNs(1, func() {
				if _, e := r.RunE(); e != nil {
					err = e
				}
			})
		})
		return wall, err
	}
	with, err := run(faultSpec)
	if err != nil {
		return err
	}
	without, err := run("")
	if err != nil {
		return err
	}
	l.set("faults.overhead_ratio", with/without)
	var perr error
	l.set("faults.parse_us", medianOf(l.sz.samples, func() float64 {
		const n = 200
		return timeNs(n, func() {
			for i := 0; i < n; i++ {
				if _, e := faults.Parse(faultSpec); e != nil {
					perr = e
				}
			}
		}) / 1e3
	}))
	return perr
}

// setup times what every run pays before its first event: fabric build
// with route install, flow generation, and a run with no flows at all.
func (l *layers) setup() error {
	ls := runSpec{}.builder()
	ft := runSpec{fattreeK: 8}.builder()
	ms := func(fn func()) float64 {
		return medianOf(l.sz.samples, func() float64 { return timeNs(1, fn) / 1e6 })
	}
	l.set("topo.build_ms_leafspine", ms(func() { ls.Build(topo.Overlay{}) }))
	l.set("topo.build_ms_fattree8", ms(func() { ft.Build(topo.Overlay{}) }))
	l.set("workload.gen_ms_poisson", ms(func() {
		workload.GeneratePoisson(workload.PoissonConfig{Hosts: ls.Hosts(), Load: 0.5, HostRate: ls.AccessRate(),
			Dist: workload.WebSearch(), Count: l.sz.genFlows, Seed: 1})
	}))
	l.set("workload.gen_ms_incast", ms(func() {
		workload.GenerateIncast(workload.IncastConfig{Hosts: ft.Hosts(), Degree: 16, Bytes: 64 << 10,
			Load: 0.6, HostRate: ft.AccessRate(), Count: l.sz.genFlows, Seed: 1})
	}))
	var err error
	empty := func(b topo.Builder, shards int) float64 {
		return ms(func() {
			r := experiment.LeafSpineRun{Topo: b, Stack: mustStack("AMRT"), Horizon: sim.Millisecond, Shards: shards}
			if _, e := r.RunE(); e != nil {
				err = e
			}
		})
	}
	l.set("experiment.empty_run_ms_leafspine", empty(ls, 1))
	l.set("experiment.empty_run_ms_fattree8_s1", empty(ft, 1))
	l.set("experiment.empty_run_ms_fattree8_s2", empty(ft, 2))
	return err
}

func (l *layers) campaign() error {
	cache, err := campaign.NewCache(filepath.Join(l.scratch, "layer-cache"))
	if err != nil {
		return err
	}
	payload, err := json.Marshal(amrt.Result{Protocol: "AMRT", Workload: "WebServer", Load: 0.5,
		Completed: 400, Total: 400, AFCT: 123456 * time.Nanosecond, P99: time.Millisecond, Utilization: 0.4321, Events: 1 << 20})
	if err != nil {
		return err
	}
	key := func(i int) string {
		return campaign.Key(amrt.SimVersion, "protocol=AMRT", "workload=WebServer", "pattern=poisson",
			"load=0.5", "flows=400", fmt.Sprintf("seed=%d", i), "topo=leafspine:leaves=4,spines=4,hostsperleaf=10",
			"incastdegree=32", "incastbytes=65536", "shufflewidth=0", "shufflebytes=1048576",
			"rpcrequest=1024", "rpcresponse=65536", "rpcdeadline=0", "homadegree=2", "sirdpool=0",
			"sirdstaleness=0", "timeout=20000000000", "faults=", "audit=false")
	}
	n := l.sz.cacheKeys
	keys := make([]string, 2*n)
	l.set("campaign.key_us", medianOf(l.sz.samples, func() float64 {
		return timeNs(len(keys), func() {
			for i := range keys {
				keys[i] = key(i)
			}
		}) / 1e3
	}))
	us := func(fn func(key string)) float64 {
		return medianOf(l.sz.samples, func() float64 {
			return timeNs(n, func() {
				for _, k := range keys[:n] {
					fn(k)
				}
			}) / 1e3
		})
	}
	l.set("campaign.cache_put_us", us(func(k string) {
		if e := cache.Put(k, payload); e != nil {
			err = e
		}
	}))
	l.set("campaign.cache_get_us", us(func(k string) {
		if _, ok := cache.Get(k); !ok {
			err = fmt.Errorf("cache: stored key %s missed", k)
		}
	}))
	missing := keys[n:]
	l.set("campaign.cache_miss_us", medianOf(l.sz.samples, func() float64 {
		return timeNs(n, func() {
			for _, k := range missing {
				if _, ok := cache.Get(k); ok {
					err = fmt.Errorf("cache: absent key %s hit", k)
				}
			}
		}) / 1e3
	}))
	if err != nil {
		return err
	}

	points := make([]campaign.Point, l.sz.points)
	for i := range points {
		points[i] = campaign.Point{Protocol: "AMRT", Workload: "WebServer", Load: 0.5, Seed: int64(i)}
	}
	l.set("campaign.orchestrate_us_per_point", medianOf(l.sz.samples, func() float64 {
		return timeNs(len(points), func() {
			_, e := campaign.Run(context.Background(), campaign.Config{Points: points, Workers: 2,
				Run: func(context.Context, campaign.Point) ([]byte, campaign.Metrics, error) {
					return payload, campaign.Metrics{}, nil
				}})
			if e != nil {
				err = e
			}
		}) / 1e3
	}))
	return err
}

// server measures the campaign daemon with a runner that does nothing:
// what `serve` adds on top of a sweep, per job and per restart.
func (l *layers) server() error {
	cfg := server.Config{
		StateDir: filepath.Join(l.scratch, "layer-server"),
		Runner: func(context.Context, json.RawMessage, func(campaign.Progress)) (json.RawMessage, error) {
			return json.RawMessage(`{"ok":true}`), nil
		},
	}
	if err := os.RemoveAll(cfg.StateDir); err != nil {
		return err
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	h := srv.Handler()
	roundTrip := func(i int) (float64, error) {
		t0 := time.Now()
		post := httptest.NewRecorder()
		h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(fmt.Sprintf(`{"job":%d}`, i))))
		var job server.Job
		if post.Code != http.StatusAccepted {
			return 0, fmt.Errorf("server: POST /jobs: status %d", post.Code)
		}
		if err := json.Unmarshal(post.Body.Bytes(), &job); err != nil {
			return 0, err
		}
		// The watch stream ends when the job reaches a terminal state.
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/jobs/"+job.ID+"/watch", nil))
		dt := time.Since(t0)
		if j, _ := srv.Job(job.ID); j.State != server.JobDone {
			return 0, fmt.Errorf("server: job %s ended %s", job.ID, j.State)
		}
		return dt.Seconds() * 1e3, nil
	}
	var trips []float64
	for i := 0; i < l.sz.ledger; i++ {
		ms, err := roundTrip(i)
		if err != nil {
			srv.Shutdown(context.Background())
			return err
		}
		if i < l.sz.jobs {
			trips = append(trips, ms)
		}
	}
	l.set("server.job_roundtrip_ms", median(trips))
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	l.set("server.replay_ms", medianOf(l.sz.samples, func() float64 {
		t0 := time.Now()
		s, e := server.New(cfg)
		ms := time.Since(t0).Seconds() * 1e3
		if e != nil {
			err = e
			return 0
		}
		if e := s.Shutdown(context.Background()); e != nil {
			err = e
		}
		return ms
	}))
	return err
}
