package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workloads"
)

// reference holds the committed expected design quality of every Table
// II layer: Thistle's energy-optimal pJ/MAC (fig4.tsv) and delay-optimal
// MAC IPC (fig7.tsv), as printed there (three decimals).
type reference struct {
	energyPJPerMAC map[string]string
	ipc            map[string]string
}

func loadReference(dir string) (*reference, error) {
	e, err := readColumn(filepath.Join(dir, "fig4.tsv"), "thistle_pJ_per_MAC")
	if err != nil {
		return nil, err
	}
	d, err := readColumn(filepath.Join(dir, "fig7.tsv"), "thistle_IPC")
	if err != nil {
		return nil, err
	}
	return &reference{energyPJPerMAC: e, ipc: d}, nil
}

// readColumn reads one named column of an experiments TSV, keyed by the
// layer column.
func readColumn(path, column string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer f.Close()
	out := map[string]string{}
	col := -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		switch {
		case strings.HasPrefix(fields[0], "=="):
		case fields[0] == "layer":
			for i, h := range fields {
				if h == column {
					col = i
				}
			}
		case col > 0 && col < len(fields):
			out[fields[0]] = fields[col]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	if len(out) != len(workloads.All()) {
		return nil, fmt.Errorf("reference %s: %d rows of %q, want %d", path, len(out), column, len(workloads.All()))
	}
	return out, nil
}

// expected returns the committed value a design for layer under crit
// must print as, and the report field it is compared with.
func (ref *reference) expected(crit model.Criterion, layer string) (string, func(*model.Report) float64) {
	if crit == model.MinDelay {
		return ref.ipc[layer], func(r *model.Report) float64 { return r.IPC }
	}
	return ref.energyPJPerMAC[layer], func(r *model.Report) float64 { return r.EnergyPerMAC }
}

// checkDesign counts one operation: the design must match the committed
// reference at its printed precision, and an independent re-evaluation
// of its mapping (core.EvaluateOn) must give a valid report with the
// same pJ/MAC and IPC.
func (r *run) checkDesign(crit model.Criterion, l workloads.Layer, res *core.Result) {
	fault := designFault(r.ref, crit, l, res)
	r.check(fault == "", "%s %v: %s", l.Name(), crit, fault)
}

// designFault describes what is wrong with a design, or returns "".
func designFault(ref *reference, crit model.Criterion, l workloads.Layer, res *core.Result) string {
	if res == nil || res.Best == nil || res.Best.Report == nil {
		return "no design"
	}
	rep := res.Best.Report
	want, field := ref.expected(crit, l.Name())
	if got := strconv.FormatFloat(field(rep), 'f', 3, 64); got != want {
		return fmt.Sprintf("got %s, reference %s", got, want)
	}
	p, err := l.Problem()
	if err != nil {
		return err.Error()
	}
	again, err := core.EvaluateOn(p, &res.Best.Arch, res.Best)
	if err != nil {
		return "re-evaluation: " + err.Error()
	}
	if !again.Valid() || !agree(again.EnergyPerMAC, rep.EnergyPerMAC) || !agree(again.IPC, rep.IPC) {
		return fmt.Sprintf("re-evaluation disagrees: %.6g pJ/MAC, IPC %.6g, violations %v",
			again.EnergyPerMAC, again.IPC, again.Violations)
	}
	return ""
}

// agree reports agreement to 1e-12 relative, the precision at which the
// project compares manifests.
func agree(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
