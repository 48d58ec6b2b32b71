package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// digest hashes the JSON encoding of a simulated output. encoding/json
// prints floats in their shortest round-tripping form and sorts map
// keys, so two outputs share a digest only if they are bit-for-bit
// equal.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// digestLog tracks the digest of each repetition of a unit of work
// and counts the repetitions that disagree with the first.
type digestLog struct {
	first      string
	reps       int
	mismatches int
}

// add records one repetition's digest; it reports false when the
// digest differs from the first repetition's.
func (d *digestLog) add(sum string) bool {
	d.reps++
	if d.reps == 1 {
		d.first = sum
		return true
	}
	if sum != d.first {
		d.mismatches++
		return false
	}
	return true
}
