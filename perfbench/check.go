package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
)

// digest identifies a response body by its length and CRC-32C. A CRC
// detects every error burst of up to 32 bits, so any single changed byte
// always changes the digest.
type digest struct {
	n   int
	crc uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func digestOf(b []byte) digest { return digest{n: len(b), crc: crc32.Checksum(b, castagnoli)} }

// answers records, per pool index, how many responses carried each
// digest. Load goroutines keep one each and merge them after timing.
type answers map[int]map[digest]int

func (a answers) add(i int, d digest) {
	m := a[i]
	if m == nil {
		m = map[digest]int{}
		a[i] = m
	}
	m[d]++
}

func (a answers) merge(b answers) {
	for i, m := range b {
		if a[i] == nil {
			a[i] = map[digest]int{}
		}
		for d, n := range m {
			a[i][d] += n
		}
	}
}

// indexes lists the recorded pool indexes in ascending order.
func (a answers) indexes() []int {
	out := make([]int, 0, len(a))
	for i := range a {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// verify counts the responses whose digest differs from the reference of
// their pool index, and describes the first mismatch.
func (a answers) verify(refs map[int]digest) (bad int, first string) {
	for _, i := range a.indexes() {
		ref, ok := refs[i]
		for d, n := range a[i] {
			if ok && d == ref {
				continue
			}
			bad += n
			if first == "" {
				first = fmt.Sprintf("pool entry %d: got %d bytes crc %08x, reference %d bytes crc %08x (known %v)",
					i, d.n, d.crc, ref.n, ref.crc, ok)
			}
		}
	}
	return bad, first
}

// degraded reports whether a search body is flagged as a partial answer.
func degraded(body []byte) bool { return bytes.Contains(body, []byte(`"degraded": true`)) }

// selfCheck proves on live data that the answer check catches a single
// flipped byte: a body that matches its reference stops matching once any
// one byte changes.
func selfCheck(body []byte) error {
	a := answers{}
	a.add(0, digestOf(body))
	refs := map[int]digest{0: digestOf(body)}
	if bad, _ := a.verify(refs); bad != 0 {
		return fmt.Errorf("answer check self-test: identical body reported as %d mismatches", bad)
	}
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0x01
	a = answers{}
	a.add(0, digestOf(flipped))
	if bad, _ := a.verify(refs); bad != 1 {
		return fmt.Errorf("answer check self-test: a flipped byte went unnoticed")
	}
	return nil
}
