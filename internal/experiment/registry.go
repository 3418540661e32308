package experiment

import (
	"fmt"
	"sort"
)

// Descriptor describes one protocol stack to the registry: its name,
// where it sits in the paper's presentation order, how to build it, and
// the hooks the options path needs. Registering a descriptor (normally
// from an init function next to the stack's constructor) is the single
// step that makes a protocol visible everywhere — ProtocolNames,
// AllStacks, the public amrt validation, the CLIs, and the docs checker
// all derive from the registry, so there is one list and no drift.
type Descriptor struct {
	// Name is the protocol's presentation name ("pHost", "AMRT", ...).
	Name string
	// Order is the position within the paper's comparison set (or within
	// the related-work set when Related is true). Orders must be dense
	// per set but the registry only sorts by them.
	Order int
	// Related marks stacks outside the paper's head-to-head comparison
	// (DCTCP): excluded from ProtocolNames/AllStacks, still buildable by
	// name through NewStack.
	Related bool

	// Build constructs the stack from the (already narrowed or shared)
	// options. Required.
	Build func(opts StackOptions) Stack

	// OptionsSet reports whether opts carries an option specific to this
	// stack — the probe Validate uses to reject options aimed at a
	// different protocol. Nil means the stack exposes no public options.
	OptionsSet func(opts StackOptions) bool
	// Narrow returns opts reduced to this stack's own fields, so a
	// shared options struct can be re-validated per comparison leg.
	// Nil means "narrow to nothing" (StackOptions zero value).
	Narrow func(opts StackOptions) StackOptions
	// CheckOptions validates this stack's own option fields. Nil means
	// every value is acceptable.
	CheckOptions func(opts StackOptions) error
}

var (
	registry  = map[string]Descriptor{}
	compareBy []string // comparison names, sorted by Order
	relatedBy []string // related names, sorted by Order
)

// Register adds a stack descriptor to the registry. It panics on a
// duplicate or empty name or a nil Build hook — registration happens in
// init functions, where failing loudly at program start is the point.
func Register(d Descriptor) {
	if d.Name == "" {
		panic("experiment: Register with empty stack name")
	}
	if d.Build == nil {
		panic(fmt.Sprintf("experiment: Register(%q) with nil Build", d.Name))
	}
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("experiment: duplicate stack registration %q", d.Name))
	}
	registry[d.Name] = d
	if d.Related {
		relatedBy = insertByOrder(relatedBy, d.Name)
	} else {
		compareBy = insertByOrder(compareBy, d.Name)
	}
}

func insertByOrder(names []string, name string) []string {
	names = append(names, name)
	sort.Slice(names, func(i, j int) bool {
		a, b := registry[names[i]], registry[names[j]]
		if a.Order != b.Order {
			return a.Order < b.Order
		}
		return a.Name < b.Name
	})
	return names
}

// ProtocolNames returns the comparison protocols in the order the
// paper's figures present them. The slice is a copy; callers may keep
// or mutate it.
func ProtocolNames() []string {
	return append([]string(nil), compareBy...)
}

// RelatedNames returns the registered related-work stacks (outside the
// comparison set) in their own presentation order.
func RelatedNames() []string {
	return append([]string(nil), relatedBy...)
}

// StackNames returns every registered stack: the comparison set in
// presentation order followed by the related-work set.
func StackNames() []string {
	return append(ProtocolNames(), relatedBy...)
}

// HasStack reports whether name is a registered stack (comparison or
// related).
func HasStack(name string) bool {
	_, ok := registry[name]
	return ok
}

// NewStack builds the named protocol stack. Unknown names return an
// error; foreign options do not — comparison runs hand one shared
// options struct to every stack and each constructor reads only its own
// fields (use ForeignOption/CheckOptions to validate user input).
func NewStack(name string, opts StackOptions) (Stack, error) {
	d, ok := registry[name]
	if !ok {
		return Stack{}, fmt.Errorf("experiment: unknown protocol %q (have %v)", name, StackNames())
	}
	return d.Build(opts), nil
}

// MustStack is NewStack for callers whose protocol name is a literal
// (figures, benchmarks, tests); it panics on an unknown name.
func MustStack(name string, opts StackOptions) Stack {
	st, err := NewStack(name, opts)
	if err != nil {
		panic(err)
	}
	return st
}

// AllStacks returns the comparison stacks in presentation order, all
// built from the same shared options.
func AllStacks(opts StackOptions) []Stack {
	names := ProtocolNames()
	out := make([]Stack, 0, len(names))
	for _, n := range names {
		out = append(out, MustStack(n, opts))
	}
	return out
}

// ForeignOption reports the name of a registered stack other than name
// whose options are set in opts, or "" if opts carries nothing foreign.
// Validation uses it to reject, e.g., SIRD knobs on an AMRT run.
func ForeignOption(name string, opts StackOptions) string {
	for _, names := range [...][]string{compareBy, relatedBy} {
		for _, n := range names {
			if n == name {
				continue
			}
			if probe := registry[n].OptionsSet; probe != nil && probe(opts) {
				return n
			}
		}
	}
	return ""
}

// CheckOptions validates the named stack's own option fields (unknown
// names and foreign options are not its job — see NewStack and
// ForeignOption).
func CheckOptions(name string, opts StackOptions) error {
	d, ok := registry[name]
	if !ok || d.CheckOptions == nil {
		return nil
	}
	return d.CheckOptions(opts)
}

// NarrowOptions returns opts reduced to the named stack's own fields;
// comparison runs use it to re-validate a shared options struct one leg
// at a time.
func NarrowOptions(name string, opts StackOptions) StackOptions {
	d, ok := registry[name]
	if !ok || d.Narrow == nil {
		return StackOptions{}
	}
	return d.Narrow(opts)
}
