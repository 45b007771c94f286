package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"sentomist/internal/core"
)

// pinSeeds is the size of the pinned digest table: a workload's inputs are
// made from its seed argument modulo pinSeeds, so every seed the driver
// passes has a pinned expected output.
const pinSeeds = 64

// pinsFile holds the pinned final-ranking digests, keyed by workload name
// and then by input seed. They were taken from the commit that added the
// benchmark; regenerate them (go run . --write-digests <workload>) only
// together with a deliberate ranking change.
//
//go:embed digests.json
var pinsFile []byte

type pinTable map[string]map[string]string

func loadPins() (pinTable, error) {
	pins := pinTable{}
	if err := json.Unmarshal(pinsFile, &pins); err != nil {
		return nil, fmt.Errorf("parse pinned digests: %w", err)
	}
	return pins, nil
}

// pinned returns the expected digest of a workload at an input seed.
func (p pinTable) pinned(workload string, inputSeed uint64) (string, bool) {
	d, ok := p[workload][strconv.FormatUint(inputSeed, 10)]
	return d, ok
}

// rankingDigest hashes a ranking's sample labels, in rank order, with the
// exact bits of each score.
func rankingDigest(r *core.Ranking) string {
	h := sha256.New()
	var bits [8]byte
	for _, s := range r.Samples {
		io.WriteString(h, s.Label(r.Labels))
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(s.Score))
		h.Write(bits[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bytesDigest hashes a byte-exact output such as the corpus report.
func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writeDigests runs one op of a workload at every input seed and stores
// the digests in path, keeping the other workloads' entries.
func writeDigests(w *workload, e env, path string) error {
	pins := pinTable{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pins); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	}
	table := map[string]string{}
	for seed := uint64(0); seed < pinSeeds; seed++ {
		e.inputSeed = seed
		inst, err := w.setup(e)
		if err != nil {
			return err
		}
		res, err := inst.op(scope{})
		inst.close()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		table[strconv.FormatUint(seed, 10)] = res.digest
		fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, seed, res.digest)
	}
	pins[w.name] = table
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
