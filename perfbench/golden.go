package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"aum"
)

// goldenSeed is the seed the checked-in golden tables were made at.
const goldenSeed = 42

// goldenDir holds the experiment tables the simulator must reproduce,
// relative to the repository root the benchmark runs from.
var goldenDir = filepath.Join("internal", "experiments", "testdata", "golden")

var goldenIDs = []string{"fig14", "fig15", "fleet", "fleetchaos"}

func checkGoldensPresent() error {
	for _, id := range goldenIDs {
		if _, err := os.Stat(filepath.Join(goldenDir, id+".json")); err != nil {
			return fmt.Errorf("golden table %s: %w", id, err)
		}
	}
	return nil
}

// goldenEqual reports whether the table renders byte-for-byte as its
// golden snapshot (the canonical form the experiment tests write).
func goldenEqual(tbl *aum.ResultTable) (bool, error) {
	got, err := json.MarshalIndent(tbl, "", "  ")
	if err != nil {
		return false, err
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, tbl.ID+".json"))
	if err != nil {
		return false, err
	}
	return bytes.Equal(append(got, '\n'), want), nil
}

// checkExperimentGolden regenerates experiment id at the golden seed
// on a fresh lab and compares it with its snapshot.
func (c *runCtx) checkExperimentGolden(id string) {
	tbl, err := aum.RunExperimentConfig(aum.ExperimentConfig{ID: id, Quick: true, Seed: goldenSeed, Workers: c.workers})
	ok := false
	if err == nil {
		ok, err = goldenEqual(tbl)
	}
	c.op(err == nil && ok, "experiment %s differs from its golden table (err=%v)", id, err)
}
