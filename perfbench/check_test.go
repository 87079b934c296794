package main

import "testing"

// body is a search answer as the server encodes it.
var body = []byte(`{
  "terms": [
    "online",
    "databse"
  ],
  "need_refine": true,
  "queries": [
    {
      "keywords": [
        "database",
        "online"
      ],
      "dsim": 1,
      "score": 0.42,
      "results": [
        {
          "id": "0.12.1.3",
          "type": "bib/author/publications/inproceedings",
          "snippet": "online database tuning"
        }
      ]
    }
  ]
}
`)

// Every single flipped byte, at every position and with every bit
// pattern, must count as a failed answer.
func TestAnswerCheckCatchesEveryFlippedByte(t *testing.T) {
	refs := map[int]digest{0: digestOf(body)}
	for pos := range body {
		for x := 1; x < 256; x++ {
			got := append([]byte(nil), body...)
			got[pos] ^= byte(x)
			a := answers{}
			a.add(0, digestOf(got))
			if bad, first := a.verify(refs); bad != 1 || first == "" {
				t.Fatalf("byte %d xor %#x: %d mismatches reported", pos, x, bad)
			}
		}
	}
}

func TestAnswerCheckCountsEveryResponse(t *testing.T) {
	refs := map[int]digest{0: digestOf(body), 1: digestOf(body[1:])}
	a := answers{}
	for i := 0; i < 5; i++ {
		a.add(0, digestOf(body))
	}
	a.add(1, digestOf(body))     // wrong answer for entry 1
	a.add(1, digestOf(body[1:])) // right answer for entry 1
	a.add(2, digestOf(body))     // entry without a reference
	b := answers{}
	b.add(1, digestOf(body))
	a.merge(b)
	if bad, _ := a.verify(refs); bad != 3 {
		t.Fatalf("verify counted %d mismatches, want 3", bad)
	}
}

func TestSelfCheck(t *testing.T) {
	if err := selfCheck(body); err != nil {
		t.Fatal(err)
	}
}

func TestDegraded(t *testing.T) {
	if degraded(body) {
		t.Fatal("complete answer reported degraded")
	}
	if !degraded([]byte("{\n  \"queries\": [],\n  \"degraded\": true,\n  \"degraded_reason\": \"deadline\"\n}\n")) {
		t.Fatal("degraded answer not reported")
	}
}

func TestHeadCheck(t *testing.T) {
	check := headCheck([]request{{terms: []string{"online", "databse"}, q: "online databse", k: 3}})
	if err := check(0, body); err != nil {
		t.Fatal(err)
	}
	other := headCheck([]request{{terms: []string{"online"}, q: "online", k: 3}})
	if err := other(0, body); err == nil {
		t.Fatal("answer to another query passed the head check")
	}
}
