package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"otisnet/internal/sweep"
	"otisnet/internal/sweepserver"
)

// TestCLISweepMatchesGridSpec pins the one grid path: each command line's
// raw CSV is byte for byte what the server and every worker compute from
// the hand-written GridSpec JSON of the same grid (PointsFromSpec, then
// Runner.Run and WriteResultsCSV).
func TestCLISweepMatchesGridSpec(t *testing.T) {
	const (
		dayRates    = "../../examples/traces/day_rates.csv"
		burstEvents = "../../examples/traces/burst_events.ndjson"
	)
	for _, tc := range []struct {
		name string
		args []string
		spec string
	}{
		{
			// The fault horizon is the whole run, slots + drain.
			"mtbf faults",
			[]string{"-net", "sk", "-rates", "0.2", "-seeds", "1", "-slots", "500", "-drain", "500",
				"-faultset", "2", "-mtbf", "100", "-mttr", "50"},
			`{"topologies":[{"net":"sk"}],"rates":[0.2],"seeds":[1],"slots":500,"drain":500,
			  "faults":[{"kind":"node","count":2,"mtbf":100,"mttr":50}]}`,
		},
		{
			// A grid with a trace and no rate axis replays at rate 1.
			"rates trace without rates",
			[]string{"-net", "sk", "-workload", "uniform,trace", "-tracefile", dayRates, "-seeds", "1", "-slots", "500", "-drain", "500"},
			`{"topologies":[{"net":"sk"}],"seeds":[1],"slots":500,"drain":500,
			  "workloads":[{"kind":"uniform"},{"kind":"trace","trace_file":"` + dayRates + `"}]}`,
		},
		{
			"rates trace with rates",
			[]string{"-net", "sk", "-workload", "trace", "-tracefile", dayRates, "-rates", "0.5,1", "-seeds", "1", "-slots", "500", "-drain", "500"},
			`{"topologies":[{"net":"sk"}],"rates":[0.5,1],"seeds":[1],"slots":500,"drain":500,
			  "workloads":[{"kind":"trace","trace_file":"` + dayRates + `"}]}`,
		},
		{
			"event trace",
			[]string{"-net", "pops", "-t", "4", "-g", "3", "-workload", "trace", "-tracefile", burstEvents, "-seeds", "2", "-slots", "400", "-drain", "400"},
			`{"topologies":[{"net":"pops","t":4,"g":3}],"seeds":[1,2],"slots":400,"drain":400,
			  "workloads":[{"kind":"trace","trace_file":"` + burstEvents + `"}]}`,
		},
		{
			"hotspot and bursty",
			[]string{"-net", "sk", "-s", "3", "-d", "2", "-k", "2", "-workload", "hotspot,bursty", "-hotgroup", "1", "-hotfrac", "0.4",
				"-burston", "20", "-burstoff", "60", "-burstlow", "0.1", "-rates", "0.1,0.3", "-modes", "sf,deflect", "-waveset", "1,2",
				"-seeds", "2", "-slots", "300", "-drain", "300"},
			`{"topologies":[{"net":"sk","s":3,"d":2,"k":2}],"rates":[0.1,0.3],"seeds":[1,2],"modes":["sf","deflect"],"wavelengths":[1,2],
			  "slots":300,"drain":300,"workloads":[{"kind":"hotspot","hot_group":1,"fraction":0.4},
			  {"kind":"bursty","mean_on":20,"mean_off":60,"off_factor":0.1}]}`,
		},
		{
			// The default rate axis, on the comparable-scale trio.
			"net all",
			[]string{"-net", "all", "-seeds", "1", "-slots", "300", "-drain", "300"},
			`{"topologies":[{"net":"sk","s":6,"d":3,"k":2},{"net":"pops","t":9,"g":8},{"net":"debruijn","d":3,"k":4}],
			  "rates":[0.05,0.1,0.2,0.4,0.8],"seeds":[1],"slots":300,"drain":300}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cli bytes.Buffer
			args := append([]string{"-sweep", "-raw", "-format", "csv"}, tc.args...)
			if err := run(args, &cli, &bytes.Buffer{}); err != nil {
				t.Fatalf("netsim %q: %v", args, err)
			}
			points, err := sweepserver.PointsFromSpec([]byte(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			var server bytes.Buffer
			if err := sweep.WriteResultsCSV(&server, sweep.Runner{}.Run(points)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cli.Bytes(), server.Bytes()) {
				t.Fatalf("netsim %q differs from its GridSpec:\ncli:\n%s\ngridspec:\n%s", args, cli.Bytes(), server.Bytes())
			}
		})
	}
}

// TestRepeatMatchesSweepStatistics: -repeat reports the same mean ± sample
// stddev of throughput, latency and hops that a sweep over the same seeds
// gives for the point, at the precision it prints.
func TestRepeatMatchesSweepStatistics(t *testing.T) {
	point := []string{"-net", "sk", "-s", "3", "-d", "2", "-k", "2", "-slots", "500", "-drain", "500"}
	var rep bytes.Buffer
	if err := run(append([]string{"-rate", "0.3", "-seed", "1", "-repeat", "3"}, point...), &rep, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var sw bytes.Buffer
	if err := run(append([]string{"-sweep", "-rates", "0.3", "-seeds", "3", "-format", "csv"}, point...), &sw, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&sw).ReadAll()
	if err != nil || len(rows) != 2 {
		t.Fatalf("sweep csv: %d rows, %v:\n%s", len(rows), err, sw.Bytes())
	}
	col := map[string]float64{}
	for i, name := range rows[0] {
		col[name], _ = strconv.ParseFloat(rows[1][i], 64)
	}
	want := fmt.Sprintf("throughput %.3f ± %.3f msgs/slot  latency %.2f ± %.2f slots  hops %.2f ± %.2f\n",
		col["throughput_mean"], col["throughput_std"], col["latency_mean"], col["latency_std"], col["hops_mean"], col["hops_std"])
	if lines := strings.SplitAfter(rep.String(), "\n"); len(lines) < 2 || lines[1] != want {
		t.Fatalf("-repeat printed\n%s\nwant the sweep's\n%s", rep.Bytes(), want)
	}
}
