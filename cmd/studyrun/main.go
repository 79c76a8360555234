// Command studyrun executes the full reproduction and prints every table
// and figure of the paper's evaluation plus the extension experiments
// (E01–E27 of DESIGN.md).
//
// Usage:
//
//	studyrun                      # everything, to stdout
//	studyrun -seed 7              # a different synthetic corpus
//	studyrun -dialect postgres    # render the corpus in another SQL dialect
//	studyrun -only fig4,fig11     # selected experiments
//	studyrun -out results/        # one file per experiment
//	studyrun -trace run.json      # also write a Chrome trace of the pipeline
//	studyrun -v                   # per-stage timing tree + debug log on stderr
//	studyrun -workers 8           # pipeline worker pool (output is identical
//	                              # for any worker count)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/sqlparse"
	"github.com/schemaevo/schemaevo/internal/study"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: parse args, execute, return
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("studyrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "corpus seed")
		only     = fs.String("only", "", "comma-separated experiment keys (default: all)")
		out      = fs.String("out", "", "write one file per experiment into this directory")
		list     = fs.Bool("list", false, "list experiment keys and exit")
		csvPath  = fs.String("csv", "", "also export the per-project dataset as CSV to this file")
		jsonPath = fs.String("json", "", "also export the machine-readable study summary as JSON to this file")
		svgDir   = fs.String("svg", "", "also render every graphical figure as SVG into this directory")
		htmlPath = fs.String("html", "", "also render the whole study as a self-contained HTML report")
		seeds    = fs.Int("seeds", 0, "run the seed-robustness experiment (E24) over this many corpora and exit")
		tracing  = fs.String("trace", "", "write a Chrome trace_event JSON of the run to this file (chrome://tracing, Perfetto)")
		verbose  = fs.Bool("v", false, "print the per-stage timing tree and debug log lines to stderr")
		workers  = fs.Int("workers", 0, "pipeline worker pool size (0 = GOMAXPROCS); any value yields byte-identical artifacts")
		dialect  = fs.String("dialect", "", "SQL dialect the corpus histories are rendered in (mysql, postgres, sqlite; default mysql)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := sqlparse.DialectByName(*dialect); !ok {
		fmt.Fprintf(stderr, "studyrun: unknown dialect %q (one of %s)\n",
			*dialect, strings.Join(sqlparse.DialectNames(), ", "))
		return 2
	}

	// Observability: -trace and -v share one tracer; without either flag the
	// pipeline runs with the free no-op path.
	ctx := context.Background()
	var tracer *obs.Tracer
	if *tracing != "" || *verbose {
		opts := obs.Options{Collect: true}
		if *verbose {
			opts.Logger = obs.NewLogger(stderr, slog.LevelDebug)
		}
		tracer = obs.NewTracer(opts)
		ctx = obs.WithTracer(ctx, tracer)
		if *verbose {
			// study.NewContext attaches the seed correlation key itself.
			ctx = obs.WithLogger(ctx, opts.Logger)
		}
	}
	// finishTrace writes the exporters once the traced work is done.
	finishTrace := func() int {
		if tracer == nil {
			return 0
		}
		if *tracing != "" {
			f, err := os.Create(*tracing)
			if err == nil {
				err = tracer.WriteChromeTrace(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(stderr, "studyrun:", err)
				return 1
			}
			fmt.Fprintln(stdout, "wrote", *tracing)
		}
		if *verbose {
			fmt.Fprint(stderr, "\npipeline stages:\n"+tracer.Tree())
		}
		return 0
	}

	// -list is purely informational, so it wins over every run mode —
	// including -seeds (the two used to interact through a shadowed
	// variable; see the regression test).
	if *list {
		for _, key := range study.ExperimentKeys() {
			fmt.Fprintln(stdout, key)
		}
		return 0
	}

	if *seeds > 0 {
		seedList := make([]int64, 0, *seeds)
		for i := 1; i <= *seeds; i++ {
			seedList = append(seedList, int64(i))
		}
		sums, err := study.MultiSeedContext(ctx, seedList)
		if err != nil {
			fmt.Fprintln(stderr, "studyrun:", err)
			return 1
		}
		fmt.Fprint(stdout, study.RenderMultiSeed(sums))
		return finishTrace()
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(k)] = true
		}
		for k := range selected {
			if !study.KnownExperiment(k) {
				fmt.Fprintf(stderr, "studyrun: unknown experiment %q (use -list)\n", k)
				return 2
			}
		}
	}

	st, err := study.NewWithOptions(ctx, *seed, study.Options{Workers: *workers, Dialect: *dialect})
	if err != nil {
		fmt.Fprintln(stderr, "studyrun:", err)
		return 1
	}

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(st.ExportCSV()), 0o644); err != nil {
			fmt.Fprintln(stderr, "studyrun:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", *csvPath)
	}

	if *jsonPath != "" {
		js, err := st.ExportJSON()
		if err == nil {
			err = os.WriteFile(*jsonPath, []byte(js), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "studyrun:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", *jsonPath)
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "studyrun:", err)
			return 1
		}
		for name, svg := range st.SVGFigures() {
			path := filepath.Join(*svgDir, name)
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				fmt.Fprintln(stderr, "studyrun:", err)
				return 1
			}
		}
		fmt.Fprintln(stdout, "wrote SVG figures to", *svgDir)
	}

	if *htmlPath != "" {
		html, err := st.HTMLReport(ctx)
		if err == nil {
			err = os.WriteFile(*htmlPath, []byte(html), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "studyrun:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", *htmlPath)
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "studyrun:", err)
			return 1
		}
	}
	for _, e := range study.Experiments() {
		if len(selected) > 0 && !selected[e.Key] {
			continue
		}
		text, _ := st.RunExperiment(ctx, e.Key)
		if *out != "" {
			path := filepath.Join(*out, e.Key+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintln(stderr, "studyrun:", err)
				return 1
			}
			fmt.Fprintln(stdout, "wrote", path)
		} else {
			fmt.Fprintln(stdout, text)
			fmt.Fprintln(stdout, strings.Repeat("=", 78))
		}
	}
	return finishTrace()
}
