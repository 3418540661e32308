package amrt

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSweepKeyCoversConfig walks Config by reflection against one
// classification table, so a field added to Config later cannot be left
// out of sweepKey by accident: two runs that differ in it would share a
// cache entry and one would get the other's result. Every field —
// Topology and Options by sub-field — is either hashed, when setting it
// to a valid non-default value must move the key, or excluded, when it
// must not. An unclassified field fails the test, and so does a table
// entry naming a field Config no longer has. Each hashed field is set
// under a Pattern, Kind or Protocol that reads it.
func TestSweepKeyCoversConfig(t *testing.T) {
	type class struct {
		hashed bool
		base   Config // a valid config under which the field is read
		set    func(*Config)
	}
	var (
		incast   = Config{Pattern: "incast"}
		shuffle  = Config{Pattern: "shuffle"}
		rpc      = Config{Pattern: "rpc"}
		spine    = Config{Topology: Topology{Kind: "leafspine"}}
		fattree  = Config{Topology: Topology{Kind: "fattree"}}
		clos     = Config{Topology: Topology{Kind: "clos"}}
		homaLeg  = Config{Protocol: "Homa"}
		sirdLeg  = Config{Protocol: "SIRD"}
		hash     = func(base Config, set func(*Config)) class { return class{true, base, set} }
		excluded = func(set func(*Config)) class { return class{false, Config{}, set} }
	)
	table := map[string]class{
		"Protocol":         hash(Config{}, func(c *Config) { c.Protocol = "pHost" }),
		"Workload":         hash(Config{}, func(c *Config) { c.Workload = "WebServer" }),
		"Load":             hash(Config{}, func(c *Config) { c.Load = 0.7 }),
		"Flows":            hash(Config{}, func(c *Config) { c.Flows = 300 }),
		"Seed":             hash(Config{}, func(c *Config) { c.Seed = 7 }),
		"Pattern":          hash(Config{}, func(c *Config) { c.Pattern = "incast" }),
		"IncastDegree":     hash(incast, func(c *Config) { c.IncastDegree = 8 }),
		"IncastBytes":      hash(incast, func(c *Config) { c.IncastBytes = 16 << 10 }),
		"ShuffleWidth":     hash(shuffle, func(c *Config) { c.ShuffleWidth = 4 }),
		"ShuffleBytes":     hash(shuffle, func(c *Config) { c.ShuffleBytes = 256 << 10 }),
		"RPCRequestBytes":  hash(rpc, func(c *Config) { c.RPCRequestBytes = 2 << 10 }),
		"RPCResponseBytes": hash(rpc, func(c *Config) { c.RPCResponseBytes = 32 << 10 }),
		"RPCDeadline":      hash(rpc, func(c *Config) { c.RPCDeadline = time.Millisecond }),
		"Timeout":          hash(Config{}, func(c *Config) { c.Timeout = 5 * time.Second }),
		"Faults":           hash(Config{}, func(c *Config) { c.Faults = "ctrl-loss=0.01" }),
		"Audit":            hash(Config{}, func(c *Config) { c.Audit = true }),

		"Topology.Kind":         hash(Config{}, func(c *Config) { c.Topology.Kind = "fattree" }),
		"Topology.Leaves":       hash(spine, func(c *Config) { c.Topology.Leaves = 3 }),
		"Topology.Spines":       hash(spine, func(c *Config) { c.Topology.Spines = 3 }),
		"Topology.HostsPerLeaf": hash(spine, func(c *Config) { c.Topology.HostsPerLeaf = 5 }),
		"Topology.K":            hash(fattree, func(c *Config) { c.Topology.K = 6 }),
		"Topology.Pods":         hash(clos, func(c *Config) { c.Topology.Pods = 3 }),
		"Topology.Aggs":         hash(clos, func(c *Config) { c.Topology.Aggs = 3 }),
		"Topology.Cores":        hash(clos, func(c *Config) { c.Topology.Cores = 5 }),
		"Topology.LinkGbps":     hash(spine, func(c *Config) { c.Topology.LinkGbps = 25 }),
		"Topology.FabricGbps":   hash(spine, func(c *Config) { c.Topology.FabricGbps = 400 }),
		"Topology.CoreGbps":     hash(fattree, func(c *Config) { c.Topology.CoreGbps = 400 }),
		"Topology.RTT":          hash(spine, func(c *Config) { c.Topology.RTT = 40 * time.Microsecond }),

		"Options.HomaDegree":        hash(homaLeg, func(c *Config) { c.Options.HomaDegree = 4 }),
		"Options.SIRDPoolBytes":     hash(sirdLeg, func(c *Config) { c.Options.SIRDPoolBytes = 100_000 }),
		"Options.SIRDStalenessRTTs": hash(sirdLeg, func(c *Config) { c.Options.SIRDStalenessRTTs = 4 }),

		"TracePath":       excluded(func(c *Config) { c.TracePath = "trace.csv" }),
		"MetricsPath":     excluded(func(c *Config) { c.MetricsPath = "metrics.json" }),
		"MetricsCSVPath":  excluded(func(c *Config) { c.MetricsCSVPath = "metrics.csv" }),
		"MetricsInterval": excluded(func(c *Config) { c.MetricsInterval = 50 * time.Microsecond }),
		"Shards":          excluded(func(c *Config) { c.Shards = 2 }),
	}

	// fieldAt is the named field of *c, "Topology.K" style.
	fieldAt := func(c *Config, name string) reflect.Value {
		v := reflect.ValueOf(c).Elem()
		for _, part := range strings.Split(name, ".") {
			v = v.FieldByName(part)
		}
		return v
	}
	seen := map[string]bool{}
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := prefix + f.Name
			if f.Type == reflect.TypeOf(Topology{}) || f.Type == reflect.TypeOf(StackOptions{}) {
				walk(name+".", f.Type)
				continue
			}
			seen[name] = true
			c, ok := table[name]
			if !ok {
				t.Errorf("Config field %s is unclassified: hash it in sweepKey and add it here, or add it here as excluded", name)
				continue
			}
			base, set := c.base, c.base
			c.set(&set)
			// The setter must move exactly this field.
			back := set
			fieldAt(&back, name).Set(fieldAt(&base, name))
			if !reflect.DeepEqual(back, base) || reflect.DeepEqual(set, base) {
				t.Errorf("%s: the table's setter does not change exactly this field", name)
				continue
			}
			for _, cfg := range []Config{base, set} {
				if err := cfg.Validate(); err != nil {
					t.Fatalf("%s: %+v does not validate: %v", name, cfg, err)
				}
			}
			moved := sweepKey(base.normalized()) != sweepKey(set.normalized())
			switch {
			case c.hashed && !moved:
				t.Errorf("%s is classified as hashed but setting it leaves sweepKey unchanged", name)
			case !c.hashed && moved:
				t.Errorf("%s is classified as excluded but setting it changes sweepKey", name)
			}
		}
	}
	walk("", reflect.TypeOf(Config{}))
	for name := range table {
		if !seen[name] {
			t.Errorf("the table classifies %s, which Config does not have", name)
		}
	}
}
