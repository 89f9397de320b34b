package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"degradable/internal/harness"
)

// experimentsFlags regenerates every table and figure of the paper (the
// E1–E8 index in DESIGN.md, then the extensions) and prints them with their
// machine-checked claims. With -markdown it emits the EXPERIMENTS.md
// payload.
func experimentsFlags(fs *flag.FlagSet) func(io.Writer) error {
	var (
		markdown = fs.Bool("markdown", false, "emit Markdown (EXPERIMENTS.md payload)")
		seed     = fs.Int64("seed", 42, "experiment seed")
		only     = fs.String("only", "", "run only this experiment ID (e.g. E3)")
		list     = fs.Bool("list", false, "list experiment IDs and titles, then exit")
	)
	return func(out io.Writer) error {
		all := harness.AllWithExtensions()
		if *list {
			for _, e := range all {
				fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Title)
			}
			return nil
		}
		if *only != "" {
			ids := make([]string, len(all))
			for i, e := range all {
				ids[i] = e.ID
			}
			i := slices.Index(ids, *only)
			if i < 0 {
				return fmt.Errorf("unknown experiment %q (want one of %s)", *only, strings.Join(ids, ", "))
			}
			all = all[i : i+1]
		}
		write := writeText
		if *markdown {
			write = writeMarkdown
		}
		failures := 0
		for _, e := range all {
			res, err := e.Run(*seed)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			write(out, res)
			if !res.AllOK() {
				failures++
			}
		}
		if failures > 0 {
			return fmt.Errorf("%d experiment(s) had failing checks", failures)
		}
		return nil
	}
}

func writeText(w io.Writer, res *harness.Result) {
	fmt.Fprintf(w, "=== %s: %s ===\n\n", res.ID, res.Title)
	fmt.Fprintln(w, res.Table.String())
	for _, c := range res.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s", status, c.Name)
		if c.Detail != "" && !c.OK {
			fmt.Fprintf(w, " — %s", c.Detail)
		}
		fmt.Fprintln(w)
	}
	if res.Notes != "" {
		fmt.Fprintf(w, "\n  Note: %s\n", res.Notes)
	}
	fmt.Fprintln(w)
}

func writeMarkdown(w io.Writer, res *harness.Result) {
	fmt.Fprintf(w, "## %s — %s\n\n", res.ID, res.Title)
	fmt.Fprintln(w, "```text")
	fmt.Fprint(w, res.Table.String())
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Checks:")
	fmt.Fprintln(w)
	for _, c := range res.Checks {
		mark := "x"
		if !c.OK {
			mark = " "
		}
		line := fmt.Sprintf("- [%s] %s", mark, c.Name)
		if c.Detail != "" && !c.OK {
			line += " — " + c.Detail
		}
		fmt.Fprintln(w, line)
	}
	if res.Notes != "" {
		fmt.Fprintf(w, "\n> %s\n", strings.ReplaceAll(res.Notes, "\n", " "))
	}
	fmt.Fprintln(w)
}
