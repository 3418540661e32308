package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"time"

	"amrt"
)

// baseSpec holds the knobs of one run that `amrtsim`, `amrtsim sweep`
// and the serve job spec share, each declared once: its JSON tag is the
// spec field, bind registers the flag of the same name with '_' written
// as '-', and config is the one place it becomes an amrt.Config.
type baseSpec struct {
	Flows        int          `json:"flows,omitempty"`
	Topo         string       `json:"topo,omitempty"`
	Pattern      string       `json:"pattern,omitempty"`
	IncastBytes  int64        `json:"incast_bytes,omitempty"`
	ShuffleWidth int          `json:"shuffle_width,omitempty"`
	ShuffleBytes int64        `json:"shuffle_bytes,omitempty"`
	RPCRequest   int64        `json:"rpc_request,omitempty"`
	RPCResponse  int64        `json:"rpc_response,omitempty"`
	RPCDeadline  specDuration `json:"rpc_deadline,omitempty"`
	HomaDegree   int          `json:"homa_degree,omitempty"`
	SIRDPool     int64        `json:"sird_pool,omitempty"`
	SIRDStale    int          `json:"sird_staleness,omitempty"`
	Timeout      specDuration `json:"timeout,omitempty"`
	Audit        bool         `json:"audit,omitempty"`
}

// bind registers every knob as a flag on fs, defaulting to its current
// value.
func (b *baseSpec) bind(fs *flag.FlagSet) {
	fs.IntVar(&b.Flows, "flows", b.Flows, "flows per run (0 = default 1000)")
	fs.StringVar(&b.Topo, "topo", b.Topo, "topology spec 'kind[:key=val,...]', e.g. leafspine:leaves=2,hosts=8, fattree:k=8 or clos:pods=4,hosts=16 (grammar in docs/TOPOLOGIES.md; '' = the default 4x4x10 leaf-spine)")
	fs.StringVar(&b.Pattern, "pattern", b.Pattern, "traffic pattern: poisson|incast|shuffle|rpc ('' = poisson)")
	fs.Int64Var(&b.IncastBytes, "incast-bytes", b.IncastBytes, "incast per-sender block size in bytes (0 = default 64KiB)")
	fs.IntVar(&b.ShuffleWidth, "shuffle-width", b.ShuffleWidth, "shuffle peers per host (0 = full all-to-all)")
	fs.Int64Var(&b.ShuffleBytes, "shuffle-bytes", b.ShuffleBytes, "shuffle per-pair transfer size in bytes (0 = default 1MiB)")
	fs.Int64Var(&b.RPCRequest, "rpc-request", b.RPCRequest, "RPC request size in bytes (0 = default 1KiB)")
	fs.Int64Var(&b.RPCResponse, "rpc-response", b.RPCResponse, "RPC response size in bytes (0 = default 64KiB)")
	fs.DurationVar((*time.Duration)(&b.RPCDeadline), "rpc-deadline", time.Duration(b.RPCDeadline), "RPC completion deadline from request start (0 = no deadlines)")
	fs.IntVar(&b.HomaDegree, "homa-degree", b.HomaDegree, "Homa overcommitment degree (0 = default 2)")
	fs.Int64Var(&b.SIRDPool, "sird-pool", b.SIRDPool, "SIRD per-receiver credit-pool bound in bytes (0 = automatic 1.5x downlink BDP)")
	fs.IntVar(&b.SIRDStale, "sird-staleness", b.SIRDStale, "SIRD demand-advertisement staleness window in RTTs (0 = default 8)")
	fs.DurationVar((*time.Duration)(&b.Timeout), "timeout", time.Duration(b.Timeout), "virtual-time horizon per run (0 = default 20s)")
	fs.BoolVar(&b.Audit, "audit", b.Audit, "attach the runtime invariant auditor: conservation/queue-bound/grant-budget checks every metrics interval, panicking with a forensic dump on the first violation (part of the sweep cache key)")
}

// config returns c with the knobs set. An error starts with the name of
// the field at fault ("topo: ..."), which is also the flag's name.
func (b baseSpec) config(c amrt.Config) (amrt.Config, error) {
	c.Flows = b.Flows
	c.Pattern = b.Pattern
	c.IncastBytes = b.IncastBytes
	c.ShuffleWidth = b.ShuffleWidth
	c.ShuffleBytes = b.ShuffleBytes
	c.RPCRequestBytes = b.RPCRequest
	c.RPCResponseBytes = b.RPCResponse
	c.RPCDeadline = time.Duration(b.RPCDeadline)
	c.Options = amrt.StackOptions{
		HomaDegree:        b.HomaDegree,
		SIRDPoolBytes:     b.SIRDPool,
		SIRDStalenessRTTs: b.SIRDStale,
	}
	c.Timeout = time.Duration(b.Timeout)
	c.Audit = b.Audit
	if b.Topo != "" {
		t, err := amrt.ParseTopology(b.Topo)
		if err != nil {
			return amrt.Config{}, fmt.Errorf("topo: %w", err)
		}
		c.Topology = t
	}
	return c, nil
}

// sweepSpec is one campaign: the grid axes over a baseSpec, plus an
// optional per-point budget. `amrtsim sweep` binds its flags into one and
// POST /jobs decodes one, so a spec field is the sweep flag with '-'
// written as '_'; docs/SERVICE.md has the schema.
type sweepSpec struct {
	Protocols  []string  `json:"protos,omitempty"`
	Workloads  []string  `json:"workloads,omitempty"`
	Topologies []string  `json:"topos,omitempty"`
	Degrees    []int     `json:"degrees,omitempty"`
	Loads      []float64 `json:"loads,omitempty"`
	Seeds      []int64   `json:"seeds,omitempty"`
	Faults     []string  `json:"faults,omitempty"`
	baseSpec
	// CellTimeout overrides the policy's cell timeout when non-zero.
	CellTimeout specDuration `json:"cell_timeout,omitempty"`
}

// servePolicy is how a campaign executes on this machine, which a spec
// does not say: the daemon's flags, or the sweep command's.
type servePolicy struct {
	cacheDir    string
	workers     int
	cellTimeout time.Duration
	quarantine  bool
}

// sweep resolves the spec against pol into the executable
// amrt.SweepConfig.
func (s sweepSpec) sweep(pol servePolicy) (amrt.SweepConfig, error) {
	base, err := s.config(amrt.Config{})
	if err != nil {
		return amrt.SweepConfig{}, err
	}
	return amrt.SweepConfig{
		Protocols:   s.Protocols,
		Workloads:   s.Workloads,
		Topologies:  s.Topologies,
		Degrees:     s.Degrees,
		Loads:       s.Loads,
		Seeds:       s.Seeds,
		Faults:      s.Faults,
		Base:        base,
		CacheDir:    pol.cacheDir,
		Workers:     pol.workers,
		CellTimeout: cmp.Or(time.Duration(s.CellTimeout), pol.cellTimeout),
		Quarantine:  pol.quarantine,
	}, nil
}

// specDuration is a time.Duration that unmarshals from either a Go
// duration string ("250ms") or integer nanoseconds.
type specDuration time.Duration

// UnmarshalJSON implements json.Unmarshaler for both accepted forms.
func (d *specDuration) UnmarshalJSON(raw []byte) error {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		v, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("bad duration %q: %w", s, perr)
		}
		*d = specDuration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(raw, &ns); err != nil {
		return fmt.Errorf("duration must be a string like \"250ms\" or integer nanoseconds: %w", err)
	}
	*d = specDuration(ns)
	return nil
}

// list returns a flag.Func setter that replaces *dst with the
// sep-separated elements of its argument, each trimmed of spaces and
// then parsed by parse. An empty argument sets nil.
func list[T any](dst *[]T, sep string, parse func(string) (T, error)) func(string) error {
	return func(arg string) error {
		var out []T
		if arg != "" {
			for _, part := range strings.Split(arg, sep) {
				v, err := parse(strings.TrimSpace(part))
				if err != nil {
					return err
				}
				out = append(out, v)
			}
		}
		*dst = out
		return nil
	}
}
