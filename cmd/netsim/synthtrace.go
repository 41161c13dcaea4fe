package main

// netsim synthtrace: deterministic "datacenter day" trace synthesis
// (workload.SynthesizeTrace), producing files that `-workload trace
// -tracefile` and the sweep service replay. Examples:
//
//	go run ./cmd/netsim synthtrace -form rates -slots 4000 -out day_rates.csv
//	go run ./cmd/netsim synthtrace -form events -nodes 72 -ndjson -out day_events.ndjson

import (
	"flag"
	"fmt"
	"io"
	"os"

	"otisnet/internal/workload"
)

func runSynthTrace(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("netsim synthtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "output trace file (empty = stdout)")
	form := fs.String("form", "rates", `record form: "rates" (slot,rate) or "events" (slot,src,dst)`)
	slots := fs.Int("slots", 4000, "trace length in slots (one day spans the trace)")
	nodes := fs.Int("nodes", 72, "event form: node id space (ids wrap modulo the replaying network)")
	window := fs.Int("window", 50, "rate form: slots between rate records")
	peak := fs.Float64("peak", 0.5, "midday per-node arrival rate before episode boosts, in (0,1]")
	seed := fs.Int64("seed", 1, "synthesis seed")
	ndjson := fs.Bool("ndjson", false, "emit NDJSON records instead of CSV")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	spec := workload.SynthSpec{
		NDJSON: *ndjson, Slots: *slots, Nodes: *nodes,
		Window: *window, Peak: *peak, Seed: *seed,
	}
	switch *form {
	case "rates":
		spec.Form = workload.TraceRates
	case "events":
		spec.Form = workload.TraceEvents
	default:
		return usage(fmt.Errorf("bad -form %q (want rates or events)", *form))
	}

	if *out == "" {
		return workload.SynthesizeTrace(stdout, spec)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := workload.SynthesizeTrace(f, spec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := workload.ScanTrace(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d %s records over %d slots, fingerprint %s\n",
		*out, info.Records, info.Form, info.MaxSlot+1, info.Fingerprint[:12])
	return nil
}
