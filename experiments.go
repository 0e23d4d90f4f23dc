package memscale

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"memscale/internal/exp"
	"memscale/internal/workload"
)

// ExperimentParams scale the paper-reproduction experiments.
type ExperimentParams struct {
	// Epochs per run (default 10 -> 50 ms simulated per run).
	Epochs int

	// TimelineEpochs for the Figure 7/8 timelines (default 20 ->
	// 100 ms, the span the paper plots).
	TimelineEpochs int

	// Gamma is the allowed performance degradation (default 0.10).
	Gamma float64

	// Workers bounds the number of concurrently simulated runs per
	// experiment grid (default GOMAXPROCS). Results are independent
	// of the worker count.
	Workers int

	// Progress receives per-run progress lines when non-nil.
	Progress io.Writer
}

func (p ExperimentParams) params(ctx context.Context) exp.Params {
	q := exp.DefaultParams()
	if p.Epochs > 0 {
		q.Epochs = p.Epochs
	}
	if p.TimelineEpochs > 0 {
		q.TimelineEpochs = p.TimelineEpochs
	}
	if p.Gamma > 0 {
		q.Gamma = p.Gamma
	}
	q.Workers = p.Workers
	q.Progress = p.Progress
	q.Ctx = ctx
	return q
}

// ExperimentReport is one rendered table/figure reproduction.
type ExperimentReport struct {
	ID    string // e.g. "figure5"
	Title string
	Text  string // aligned ASCII table
	CSV   string // the same data as CSV
}

func render(r exp.Report) ExperimentReport {
	var text, csv strings.Builder
	r.Render(&text)
	r.Table.CSV(&csv)
	return ExperimentReport{ID: r.ID, Title: r.Title, Text: text.String(), CSV: csv.String()}
}

// experimentRunners maps experiment IDs to their drivers. Drivers that
// share simulation grids (figure5/figure6, figure9-11) are exposed as
// one ID producing several reports.
func experimentRunners(p exp.Params) map[string]func() ([]exp.Report, error) {
	one := func(f func() (exp.Report, error)) func() ([]exp.Report, error) {
		return func() ([]exp.Report, error) {
			r, err := f()
			if err != nil {
				return nil, err
			}
			return []exp.Report{r}, nil
		}
	}
	return map[string]func() ([]exp.Report, error){
		"table1":  one(p.Table1),
		"table2":  func() ([]exp.Report, error) { return []exp.Report{p.Table2()}, nil },
		"figure2": one(p.Figure2),
		"figure5+6": func() ([]exp.Report, error) {
			return p.Figures5And6()
		},
		"figure7": one(p.Figure7),
		"figure8": one(p.Figure8),
		"figure9-11": func() ([]exp.Report, error) {
			return p.Figures9To11()
		},
		"figure12":          one(p.Figure12),
		"figure13":          one(p.Figure13),
		"figure14":          one(p.Figure14),
		"figure15":          one(p.Figure15),
		"sensitivity-extra": one(p.SensitivityExtra),
		"class-summaries": func() ([]exp.Report, error) {
			var out []exp.Report
			for _, c := range []workload.Class{workload.ClassILP, workload.ClassMID, workload.ClassMEM} {
				r, err := p.ByClassSummary(c)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		},
	}
}

// experimentOrder is the presentation order of experiment IDs.
var experimentOrder = []string{
	"table1", "table2", "figure2", "figure5+6", "figure7", "figure8",
	"figure9-11", "figure12", "figure13", "figure14", "figure15",
	"sensitivity-extra", "class-summaries",
}

// Experiments lists the available experiment IDs in presentation
// order.
func Experiments() []string {
	return append([]string(nil), experimentOrder...)
}

// RunExperiment executes one experiment by ID ("all" runs everything)
// and returns its rendered reports.
func RunExperiment(id string, params ExperimentParams) ([]ExperimentReport, error) {
	return RunExperimentContext(context.Background(), id, params)
}

// RunExperimentContext is RunExperiment with cancellation: the
// experiment grids run on the parallel sweep engine under ctx, and an
// in-flight simulation stops promptly when ctx fires.
func RunExperimentContext(ctx context.Context, id string, params ExperimentParams) ([]ExperimentReport, error) {
	p := params.params(ctx)
	runners := experimentRunners(p)
	ids := []string{id}
	if id == "all" {
		ids = Experiments()
	} else if _, ok := runners[id]; !ok {
		known := Experiments()
		sort.Strings(known)
		return nil, fmt.Errorf("memscale: unknown experiment %q (known: %s, all)",
			id, strings.Join(known, ", "))
	}
	var out []ExperimentReport
	for _, one := range ids {
		reports, err := runners[one]()
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", one, err)
		}
		for _, r := range reports {
			out = append(out, render(r))
		}
	}
	return out, nil
}
