// Command configsynth synthesizes network security configurations from a
// problem description file, reproducing the ConfigSynth tool of the
// paper.
//
// Usage:
//
//	configsynth -f problem.txt [-o design.txt] [-dot design.dot]
//	configsynth -f problem.txt -assist
//	configsynth -f problem.txt -explain
//	configsynth -example [-assist|-explain|...]
//
// The input format mirrors the paper's Table IV (see internal/spec). On
// SAT the tool prints the isolation pattern per flow and the device
// placements; on UNSAT with -explain it runs the paper's Algorithm 1 and
// suggests threshold relaxations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"configsynth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "configsynth:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("configsynth", flag.ContinueOnError)
	var (
		inFile  = fs.String("f", "", "problem description file (Table IV format)")
		example = fs.Bool("example", false, "use the paper's built-in example problem")
		outFile = fs.String("o", "", "write the design to this file (default stdout)")
		dotFile = fs.String("dot", "", "write a Graphviz rendering of the placements")
		assist  = fs.Bool("assist", false, "print slider assistance (paper Table III)")
		explain = fs.Bool("explain", false, "on UNSAT, run Algorithm 1 and suggest relaxations")
		maxIso  = fs.Bool("max-isolation", false, "maximize isolation under the usability/cost sliders")
		budget  = fs.Int64("probe-budget", 0, "conflict budget per optimization probe (0 = default)")
		timeout = fs.Duration("timeout", 0, "wall-clock deadline for solving (e.g. 30s; 0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		prob *configsynth.Problem
		err  error
	)
	switch {
	case *example:
		prob = configsynth.PaperExample()
	case *inFile != "":
		f, ferr := os.Open(*inFile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		prob, err = configsynth.ParseProblem(f)
		if err != nil {
			return err
		}
	default:
		return errors.New("either -f <file> or -example is required")
	}
	if *budget != 0 {
		prob.Options.ProbeBudget = *budget
	}

	syn, err := configsynth.New(prob)
	if err != nil {
		return err
	}

	if *assist {
		entries, err := syn.Assist([]int{0, 25, 50, 75, 100})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "# slider assistance (paper Table III)")
		for _, e := range entries {
			fmt.Fprintln(stdout, e)
		}
		return nil
	}

	// A -timeout deadline rides the solvers' cooperative interrupts: on
	// expiry the in-flight probe aborts and we exit non-zero.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	q := configsynth.Query{Thresholds: prob.Thresholds}
	if *maxIso {
		q.Optimise = configsynth.ThresholdIsolation
	}
	design, err := syn.Run(ctx, q)
	// -timeout is a hard deadline: even when the descent salvaged an
	// anytime best-found design, an expired context fails the run.
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("no proven design within the %v deadline (raise -timeout, or lower -probe-budget for an anytime answer)", *timeout)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("no design within the %v deadline (raise -timeout, or lower -probe-budget for an anytime answer)", *timeout)
		}
		if !configsynth.IsUnsat(err) {
			return err
		}
		fmt.Fprintln(stdout, "unsat:", err)
		if !*explain {
			fmt.Fprintln(stdout, "re-run with -explain for relaxation suggestions")
			return nil
		}
		ex, exErr := syn.Explain()
		if exErr != nil {
			return exErr
		}
		fmt.Fprintln(stdout, "# unsat-core analysis (paper Algorithm 1)")
		for _, r := range ex.Relaxations {
			fmt.Fprintln(stdout, r)
		}
		return nil
	}

	if *maxIso {
		fmt.Fprintf(stdout, "# maximum isolation %.2f (usability >= %.1f, cost <= $%dK)\n",
			q.Objective(design), float64(prob.Thresholds.UsabilityTenths)/10, prob.Thresholds.CostBudget)
	}
	out := stdout
	if *outFile != "" {
		f, ferr := os.Create(*outFile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		out = f
	}
	if err := configsynth.WriteDesign(out, prob, design); err != nil {
		return err
	}
	if *dotFile != "" {
		labels := configsynth.DeviceLabels(prob, design)
		if err := os.WriteFile(*dotFile, []byte(prob.Network.DOT(labels)), 0o644); err != nil {
			return err
		}
	}
	return nil
}
