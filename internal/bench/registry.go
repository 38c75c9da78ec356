package bench

import (
	"fmt"
	"sort"
)

// The experiment registry. Each experiment file registers a
// self-describing descriptor from its init function — id, title, the
// workload axes its series sweep, the unit of the measured values, the
// Result names it emits and whether the output is fully deterministic —
// so cmd/benchorch can enumerate, select, run and diff experiments
// without hard-coding what each one produces.

// Experiment describes one registered experiment.
type Experiment struct {
	// ID is the experiment's stable identifier (the -run token).
	ID string
	// Title is a one-line description for listings.
	Title string
	// Axes names the workload-input columns of the emitted CSVs (the
	// swept parameters, e.g. "m", "n"). Axis columns are seeded-RNG
	// deterministic; the remaining columns are measurements.
	Axes []string
	// Unit is the unit of the measured series ("" for demos).
	Unit string
	// Series lists the Result names the experiment emits, in order.
	Series []string
	// Deterministic marks experiments whose full output (text and CSV)
	// is a pure function of Config — models and simulators, not
	// wall-clock measurements.
	Deterministic bool
	// Run executes the experiment.
	Run func(Config) []Result
}

var (
	registry = map[string]Experiment{}
	// paperOrder fixes the enumeration order: the paper's artifact order
	// followed by this implementation's own experiments.
	paperOrder = []string{
		"fig1", "fig2", "fig3", "table1", "fig4", "fig5",
		"fig6", "table2", "fig7", "fig8", "fig9", "locality", "gpusim",
		"planreuse", "tuned", "ooc", "permute", "tilestore",
	}
)

// Register adds e to the registry. It panics on invalid or duplicate
// descriptors — registration happens from init functions, so a broken
// descriptor is a programming error, not a runtime condition.
func Register(e Experiment) {
	switch {
	case e.ID == "":
		panic("bench: Register with empty ID")
	case e.Run == nil:
		panic("bench: Register " + e.ID + " with nil Run")
	case e.Title == "":
		panic("bench: Register " + e.ID + " with empty Title")
	case len(e.Series) == 0:
		panic("bench: Register " + e.ID + " with no Series")
	}
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the descriptor registered under id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment in paper order; experiments
// outside the canonical order (none today) sort after it by id.
func All() []Experiment {
	rank := make(map[string]int, len(paperOrder))
	for i, id := range paperOrder {
		rank[id] = i
	}
	es := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		ri, iKnown := rank[es[i].ID]
		rj, jKnown := rank[es[j].ID]
		switch {
		case iKnown && jKnown:
			return ri < rj
		case iKnown:
			return true
		case jKnown:
			return false
		default:
			return es[i].ID < es[j].ID
		}
	})
	return es
}

// IDs returns the registered experiment ids in enumeration order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// MustGet returns the descriptor for id, panicking on unknown ids; the
// orchestrator uses it for preset-listed experiments that must exist.
func MustGet(id string) Experiment {
	e, ok := registry[id]
	if !ok {
		panic(fmt.Sprintf("bench: unknown experiment %q", id))
	}
	return e
}
