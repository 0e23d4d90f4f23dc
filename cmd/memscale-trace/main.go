// Command memscale-trace inspects the synthetic workload generators:
// it expands a mix (or a single application) into its access stream
// and reports the realized RPKI/WPKI, row locality, and bank/channel
// spread — or dumps raw accesses for external tools.
//
// Usage:
//
//	memscale-trace -mix MEM1 [-instructions 10000000]
//	memscale-trace -app swim -dump 20
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"memscale/internal/config"
	"memscale/internal/trace"
	"memscale/internal/workload"
)

func main() {
	mixName := flag.String("mix", "", "mix to expand (all 16 cores)")
	appName := flag.String("app", "", "single application to expand instead of a mix")
	instructions := flag.Uint64("instructions", 10_000_000, "instructions per core to generate")
	dump := flag.Int("dump", 0, "print the first N accesses instead of statistics")
	seed := flag.Uint64("seed", 1, "stream seed (single-app mode)")
	flag.Parse()

	cfg := config.Default()
	mapper := config.NewAddressMapper(&cfg)

	switch {
	case *appName != "":
		p, err := workload.App(*appName)
		if err != nil {
			fail(err)
		}
		s, err := trace.NewStream(p, mapper, *seed)
		if err != nil {
			fail(err)
		}
		if *dump > 0 {
			dumpAccesses(s, mapper, *dump)
			return
		}
		describe(*appName, []*trace.Stream{s}, *instructions)
	case *mixName != "":
		mix, err := workload.ByName(*mixName)
		if err != nil {
			fail(err)
		}
		streams, err := mix.Streams(&cfg)
		if err != nil {
			fail(err)
		}
		if *dump > 0 {
			dumpAccesses(streams[0], mapper, *dump)
			return
		}
		describe(mix.Name, streams, *instructions)
		fmt.Printf("paper reference: RPKI %.2f, WPKI %.2f\n", mix.PaperRPKI, mix.PaperWPKI)
	default:
		fmt.Fprintln(os.Stderr, "memscale-trace: pass -mix or -app (see -help)")
		os.Exit(2)
	}
}

func dumpAccesses(s *trace.Stream, mapper *config.AddressMapper, n int) {
	fmt.Println("gap_instr  line            ch rank bank row    col  writeback")
	for i := 0; i < n; i++ {
		a := s.Next()
		loc := a.Loc
		wb := ""
		if a.Writeback {
			wb = fmt.Sprintf("-> wb line %d", mapper.Unmap(a.WBLoc))
		}
		fmt.Printf("%9d  %-14d  %2d %4d %4d %6d %4d  %s\n",
			a.Gap, mapper.Unmap(loc), loc.Channel, loc.Rank, loc.Bank, loc.Row, loc.Col, wb)
	}
}

func describe(name string, streams []*trace.Stream, target uint64) {
	var instr, reads, wbs, sameRow uint64
	channels := map[int]uint64{}
	var prev config.Location
	havePrev := false
	for _, s := range streams {
		for {
			loc := s.Next().Loc
			channels[loc.Channel]++
			if havePrev && loc.Channel == prev.Channel && loc.Rank == prev.Rank &&
				loc.Bank == prev.Bank && loc.Row == prev.Row {
				sameRow++
			}
			prev, havePrev = loc, true
			if in, _, _ := s.Stats(); in >= target {
				break
			}
		}
		in, rd, wb := s.Stats()
		instr += in
		reads += rd
		wbs += wb
	}
	fmt.Printf("%s: %d cores, %d instructions, %d reads, %d writebacks\n",
		name, len(streams), instr, reads, wbs)
	fmt.Printf("RPKI %.3f, WPKI %.3f, consecutive same-row %.1f%%\n",
		float64(reads)/float64(instr)*1000,
		float64(wbs)/float64(instr)*1000,
		float64(sameRow)/float64(reads)*100)
	fmt.Print("channel spread:")
	for ch := 0; ch < len(channels); ch++ {
		fmt.Printf(" ch%d %.1f%%", ch, float64(channels[ch])/float64(reads)*100)
	}
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "memscale-trace:", err)
	// Unknown-name lookups carry typed sentinels; list the valid
	// names so the user doesn't have to guess.
	switch {
	case errors.Is(err, workload.ErrUnknownApp):
		fmt.Fprintln(os.Stderr, "known applications:", strings.Join(workload.AppNames(), " "))
	case errors.Is(err, workload.ErrUnknownMix):
		fmt.Fprintln(os.Stderr, "known mixes:", strings.Join(workload.Names(), " "))
	}
	os.Exit(1)
}
