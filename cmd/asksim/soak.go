package main

import (
	"fmt"
	"os"

	"repro/internal/chaos"
)

// runSoak runs runs consecutive soak seeds (cfg.Seed, cfg.Seed+1, ...) on
// the -topology preset, printing each report, and exits 1 if any failed.
// Soak flags that do not apply to the topology are rejected by the soak's
// config validation: a silently ignored flag would make a reproducer line
// lie about what ran.
func runSoak(topology string, runs int, cfg chaos.Config) {
	switch topology {
	case "rack":
		cfg.Preset = chaos.Rack
	case "fattree":
		cfg.Preset = chaos.FatTree
	default:
		fail("unknown -topology %q (rack or fattree)", topology)
	}
	ok := true
	for i := 0; i < runs; i++ {
		c := cfg
		c.Seed += int64(i)
		rep, err := chaos.Soak(c)
		if err != nil {
			fail("%v", err)
		}
		fmt.Print(rep)
		ok = ok && rep.Passed()
	}
	if !ok {
		os.Exit(1)
	}
}
