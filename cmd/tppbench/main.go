// Command tppbench regenerates the TPP paper's evaluation artefacts:
// Figs. 3–6 and Tables III–V, printed in the same rows/series the paper
// reports and optionally dumped as CSV.
//
// Usage:
//
//	tppbench                 # quick scale (seconds)
//	tppbench -full           # paper scale (minutes; naive greedy is slow by design)
//	tppbench -exp fig3       # one artefact only
//	tppbench -csv out/       # also write CSV files
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tppbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tppbench", flag.ContinueOnError)
	var (
		full   = fs.Bool("full", false, "paper-scale datasets (1133-node Arenas, 30k-node DBLP stand-in)")
		exp    = fs.String("exp", "all", "which artefact: fig3, fig4, fig5, fig6, tab3, tab4, tab5, ext1..ext4 or all")
		csvDir = fs.String("csv", "", "directory for CSV output (created if missing)")
		seed   = fs.Int64("seed", 1, "master random seed")
		reps   = fs.Int("reps", 0, "target samplings per point (0 = config default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.QuickConfig(os.Stdout)
	if *full {
		cfg = experiments.DefaultConfig(os.Stdout)
	}
	cfg.Seed = *seed
	if *reps > 0 {
		cfg.Repetitions = *reps
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		cfg.CSVDir = *csvDir
	}

	switch *exp {
	case "all":
		return cfg.RunAll()
	case "fig3":
		_, err := cfg.Fig3()
		return err
	case "fig4":
		_, err := cfg.Fig4()
		return err
	case "fig5":
		_, err := cfg.Fig5()
		return err
	case "fig6":
		_, err := cfg.Fig6()
		return err
	case "tab3":
		_, err := cfg.Table3()
		return err
	case "tab4":
		_, err := cfg.Table4()
		return err
	case "tab5":
		_, err := cfg.Table5()
		return err
	case "ext1":
		_, err := cfg.Ext1StructuralComparison()
		return err
	case "ext2":
		_, err := cfg.Ext2KatzDefense()
		return err
	case "ext3":
		_, err := cfg.Ext3PentagonPanel()
		return err
	case "ext4":
		_, err := cfg.Ext4DPComparison(2.0)
		return err
	}
	return fmt.Errorf("unknown experiment %q", *exp)
}
