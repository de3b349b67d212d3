package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Experiments maps experiment ids to their drivers. Every table and
// figure of the paper's evaluation appears here (DESIGN.md's index).
var Experiments = map[string]func(*Runner, io.Writer) error{
	"table1":   func(r *Runner, w io.Writer) error { _, err := r.Table1(w); return err },
	"table2":   func(r *Runner, w io.Writer) error { _, err := r.Table2(w); return err },
	"table3":   func(r *Runner, w io.Writer) error { _, err := r.Table34(w); return err },
	"table4":   func(r *Runner, w io.Writer) error { _, err := r.Table34(w); return err },
	"fig5":     func(r *Runner, w io.Writer) error { _, err := r.Fig5(w); return err },
	"fig6":     func(r *Runner, w io.Writer) error { _, err := r.Fig6(w); return err },
	"fig7":     func(r *Runner, w io.Writer) error { _, err := r.Fig7(w); return err },
	"fig8":     func(r *Runner, w io.Writer) error { _, err := r.Fig8(w); return err },
	"fig9":     func(r *Runner, w io.Writer) error { _, err := r.Fig9(w); return err },
	"fig11":    func(r *Runner, w io.Writer) error { _, _, err := r.Fig11(w); return err },
	"fig12":    func(r *Runner, w io.Writer) error { _, err := r.Fig12(w); return err },
	"fig13":    func(r *Runner, w io.Writer) error { _, err := r.Fig13(w); return err },
	"fig14":    func(r *Runner, w io.Writer) error { _, err := r.Fig14(w); return err },
	"fig15":    func(r *Runner, w io.Writer) error { _, err := r.Fig15(w); return err },
	"locality": func(r *Runner, w io.Writer) error { _, err := r.LocalityStudy(w); return err },
	"dash":     func(r *Runner, w io.Writer) error { _, err := r.Dash(w); return err },
}

// order lists experiments in the paper's presentation order.
var order = []string{
	"table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig11", "fig12", "table4", "fig13", "fig14", "fig15", "locality", "dash",
}

// Names returns the known experiment ids, ordered.
func Names() []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range order {
		if !seen[n] {
			out = append(out, n)
			seen[n] = true
		}
	}
	var rest []string
	for n := range Experiments {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// Run executes one experiment by id.
func (r *Runner) Run(id string, w io.Writer) error {
	fn, ok := Experiments[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (known: %v)", id, Names())
	}
	return fn(r, w)
}

// All runs every experiment in presentation order, skipping the table4
// alias of table3.
func (r *Runner) All(w io.Writer) error {
	seen := map[string]bool{"table4": true} // same driver as table3
	for _, id := range order {
		if seen[id] {
			continue
		}
		seen[id] = true
		if err := r.Run(id, w); err != nil {
			return fmt.Errorf("bench: %s: %w", id, err)
		}
	}
	return nil
}

// ResultsJSON maps experiment ids to drivers returning their structured
// results, for machine-readable output.
var ResultsJSON = map[string]func(*Runner) (any, error){
	"table1": func(r *Runner) (any, error) { return r.Table1(io.Discard) },
	"table2": func(r *Runner) (any, error) { return r.Table2(io.Discard) },
	"table3": func(r *Runner) (any, error) { return r.Table34(io.Discard) },
	"table4": func(r *Runner) (any, error) { return r.Table34(io.Discard) },
	"fig5":   func(r *Runner) (any, error) { return r.Fig5(io.Discard) },
	"fig6":   func(r *Runner) (any, error) { return r.Fig6(io.Discard) },
	"fig7":   func(r *Runner) (any, error) { return r.Fig7(io.Discard) },
	"fig8":   func(r *Runner) (any, error) { return r.Fig8(io.Discard) },
	"fig9":   func(r *Runner) (any, error) { return r.Fig9(io.Discard) },
	"fig11": func(r *Runner) (any, error) {
		simple, improved, err := r.Fig11(io.Discard)
		return map[string]any{"simple": simple, "improved": improved}, err
	},
	"fig12":    func(r *Runner) (any, error) { return r.Fig12(io.Discard) },
	"fig13":    func(r *Runner) (any, error) { return r.Fig13(io.Discard) },
	"fig14":    func(r *Runner) (any, error) { return r.Fig14(io.Discard) },
	"fig15":    func(r *Runner) (any, error) { return r.Fig15(io.Discard) },
	"locality": func(r *Runner) (any, error) { return r.LocalityStudy(io.Discard) },
	"dash":     func(r *Runner) (any, error) { return r.Dash(io.Discard) },
}

// RunJSON executes one experiment and writes its structured result as
// JSON.
func (r *Runner) RunJSON(id string, w io.Writer) error {
	fn, ok := ResultsJSON[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (known: %v)", id, Names())
	}
	res, err := fn(r)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"experiment": id, "results": res})
}

// AllJSON runs every experiment, emitting one JSON document.
func (r *Runner) AllJSON(w io.Writer) error {
	out := map[string]any{}
	for _, id := range Names() {
		if id == "table4" {
			continue // alias of table3
		}
		res, err := ResultsJSON[id](r)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", id, err)
		}
		out[id] = res
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
