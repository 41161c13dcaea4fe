package main

// Pinned digests of the simulated statistics at seed 1. Simulation is
// deterministic, so any change to what the program computes moves them;
// a change meant only to make it faster must leave them alone. Regenerate
// with `e2ebench -pins` only when the simulated model changes on purpose.

import (
	"fmt"
	"io"

	"otisnet/internal/sim"
	"otisnet/internal/sweep"
)

// singlePinsFull[rep] digests the sim.Metrics of repetition rep's runs on
// SK(4,2,10).
var singlePinsFull = []string{
	"8341a2915c65652e", "cd686e4a863970ce", "1c85da86ae4ef7f9", "2a6938fef4fea595",
	"01f0001b9db68bfe", "46244c73ca7d55e9", "9d1fbeee5bc92f1b", "f004be03c8c52b67",
	"21e75946e4677103", "de4a2252e37adbac", "ecb7201b61bef382", "f5042abc54495017",
}

// singlePinsSmall is the same on the self-test's SK(4,2,4).
var singlePinsSmall = []string{
	"32df18fb2a06d27e", "f353b37e9b615e5e", "6772cede1b4aa22c", "9a3cfac31af66ce3",
	"597bd743b1377dfd", "003793e49c8c6648", "9c7d3256b07a5e3f", "fdf892e4b236ac4c",
	"ebfbdcb9794736fc", "d6d04e9efd0f9e8c", "dc38b5adfa86bcdc", "f4fbdc2cc5ee2b52",
}

// trioPinFull digests the merged rows of the 432-point trio grid.
const trioPinFull = "be1a9ab588162872"

// trioPinSmall digests the self-test's shrunken trio grid.
const trioPinSmall = "0eb949aee9ded1d3"

func singlePins(small bool) []string {
	if small {
		return singlePinsSmall
	}
	return singlePinsFull
}

func trioPin(small bool) string {
	if small {
		return trioPinSmall
	}
	return trioPinFull
}

// printPins computes every pin in-process, without the service: the
// single runs on one engine reused across seeds (Engine.Run is bit-for-bit
// a fresh engine), the trio grid on a plain sweep.Runner, whose results
// the fleet's merged rows must equal.
func printPins(w io.Writer, root string) error {
	for _, small := range []bool{false, true} {
		topo, err := skSpec(small).Build()
		if err != nil {
			return err
		}
		eng := sim.NewEngine(topo.Topo, sim.Config{})
		fmt.Fprintf(w, "single small=%v:", small)
		for rep := 0; rep < 12; rep++ {
			var parts [][]byte
			for i := 0; i < skRuns; i++ {
				m := eng.Run(sim.UniformTraffic{Rate: skRate}, skSlots, skDrain, sim.Config{Seed: runSeed(1, rep, i)})
				parts = append(parts, []byte(fmt.Sprintf("%+v", m)))
			}
			fmt.Fprintf(w, " %q,", digest(parts...))
		}
		fmt.Fprintln(w)
		b := &bench{seed: 1, root: root, small: small}
		grid, err := trioSpec(b).Grid()
		if err != nil {
			return err
		}
		results := sweep.Runner{}.Run(grid.Points())
		rows := make([]streamRow, len(results))
		for i, r := range results {
			rows[i] = streamRow{Index: i, Record: sweep.NewRecord(r)}
		}
		d, err := rowsDigest(rows)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "trio small=%v: %q (%d points)\n", small, d, len(rows))
	}
	return nil
}
