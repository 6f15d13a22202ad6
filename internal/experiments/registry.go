package experiments

import (
	"fmt"
	"sort"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/parallel"
)

// RunSpec describes one cluster run completely: cluster.New(Config,
// Specs) followed by Run(Warmup, Measure) reproduces it on its own, with
// nothing scheduled outside the description.
type RunSpec struct {
	// Name labels the run within its experiment.
	Name    string
	Config  cluster.Config
	Specs   []cluster.ClientSpec
	Warmup  int
	Measure int
}

// run builds the run's cluster and runs it.
func (r RunSpec) run() (*cluster.Results, error) {
	cl, err := cluster.New(r.Config, r.Specs)
	if err != nil {
		return nil, err
	}
	return cl.Run(r.Warmup, r.Measure)
}

// Plan is one experiment as data: the runs it makes and how their
// results render.
type Plan struct {
	Runs []RunSpec
	// Render turns the runs' results, in plan order, into the report's
	// caption, tables and notes. The runner calls it once.
	Render func(outs []*cluster.Results) *Report
}

// Func plans one experiment.
type Func func(Options) (*Plan, error)

// registry maps experiment ids to their functions.
var registry = map[string]Func{
	"config":      TableI,
	"profile":     Profile,
	"fig6":        Fig6,
	"fig7":        Fig7,
	"fig8":        Fig8,
	"fig9":        Fig9,
	"fig10":       Fig10and11,
	"fig12":       Fig12,
	"fig13":       Fig13to15,
	"fig16":       Fig16and17,
	"fig18":       Fig18and19,
	"ablation":    Ablation,
	"limits":      Limits,
	"multiserver": MultiServer,
	"set5":        Set5,
	"set6":        Set6,
}

// aliases map alternative names (paper figure/experiment numbering) onto
// registry ids.
var aliases = map[string]string{
	"tablei": "config",
	"1a":     "fig6",
	"1b":     "fig7",
	"1c":     "fig8",
	"2a":     "fig9",
	"2b":     "fig10",
	"fig11":  "fig10",
	"2c":     "fig12",
	"3":      "fig13",
	"fig14":  "fig13",
	"fig15":  "fig13",
	"4over":  "fig16",
	"fig17":  "fig16",
	"4under": "fig18",
	"fig19":  "fig18",
	"chaos":  "set5",
	"5":      "set5",
	"fleet":  "set6",
	"6":      "set6",
}

// Order is the canonical execution order for -all runs.
var Order = []string{
	"config", "profile", "fig6", "fig7", "fig8", "fig9", "fig10", "fig12", "fig13", "fig16", "fig18", "set5", "set6", "ablation", "limits", "multiserver",
}

// Lookup resolves an experiment id (or alias) to its function.
func Lookup(id string) (Func, error) {
	if canonical, ok := aliases[id]; ok {
		id = canonical
	}
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, Known())
	}
	return f, nil
}

// Known lists all experiment ids, sorted.
func Known() []string { return sortedKeys(registry) }

// Aliases lists the alternative experiment names, sorted.
func Aliases() []string { return sortedKeys(aliases) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id: it checks the options, plans the
// experiment, runs the plan's clusters Options.Parallel at a time (each
// on its own kernel, so the results are the same at any worker count)
// and renders their results. A run that fails fails the experiment, with
// an error naming the experiment and the run.
func Run(id string, o Options) (*Report, error) {
	f, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	if canonical, ok := aliases[id]; ok {
		id = canonical
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	plan, err := f(o)
	if err != nil {
		return nil, err
	}
	outs, err := parallel.Map(o.workers(), len(plan.Runs), func(i int) (*cluster.Results, error) {
		r := plan.Runs[i]
		res, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("experiment %s, run %q: %w", id, r.Name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rep := plan.Render(outs)
	rep.ID = id
	for i, r := range plan.Runs {
		rep.Runs = append(rep.Runs, RunResult{Run: r, Results: outs[i]})
	}
	return rep, nil
}
