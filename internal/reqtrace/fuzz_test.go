package reqtrace

import (
	"bytes"
	"os"
	"testing"
)

// FuzzReadTrace throws arbitrary bytes at Read. The contract under fuzzing:
// Read never panics, and whenever it accepts an input the returned trace is
// valid (Read runs Validate before returning — ordering, non-negative
// arrivals, positive token counts) and survives a JSONL re-write/re-read
// with every numeric field intact. Malformed headers, out-of-order
// arrivals and bad token counts must surface as errors, never as panics
// or as invalid traces.
//
// Seeds: the checked-in Azure-styled sample, a few minimal hand-written
// valid and near-valid inputs so mutation starts on both sides of every
// validation boundary, and files in the retired #reqtrace CSV layouts as
// rejection seeds.
func FuzzReadTrace(f *testing.F) {
	sample, err := os.ReadFile("testdata/azure_llm_sample.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)

	f.Add([]byte("{\"format\":\"reqtrace\",\"version\":1}\n{\"arrival_ns\":0,\"prompt_tokens\":1,\"output_tokens\":1}\n"))
	f.Add([]byte("{\"format\":\"reqtrace\",\"version\":99}\n"))                                                                                                                        // newer than supported
	f.Add([]byte("{\"format\":\"reqtrace\",\"version\":1}\n{\"arrival_ns\":5,\"prompt_tokens\":1,\"output_tokens\":1}\n{\"arrival_ns\":3,\"prompt_tokens\":1,\"output_tokens\":1}\n")) // out of order
	f.Add([]byte("plain text"))

	// The retired #reqtrace CSV layouts: six columns, eight (sessions), and
	// a bad column header.
	f.Add([]byte("#reqtrace v1\narrival_ns,class,slo,priority,prompt_tokens,output_tokens\n0,chat,interactive,2,120,64\n"))
	f.Add([]byte("#reqtrace v1\narrival_ns,class,slo,priority,prompt_tokens,output_tokens,session_id,turn\n0,chat,interactive,2,120,64,c#0,0\n"))
	f.Add([]byte("#reqtrace v1\nwrong,header\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		// Read validates before returning, so acceptance implies validity.
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("Read accepted an invalid trace: %v", verr)
		}
		// An accepted trace re-writes and re-reads cleanly. String fields
		// may be canonicalized (JSON sanitizes invalid UTF-8), but record
		// count and every numeric field round-trip exactly.
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatalf("re-write of an accepted trace failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read of a re-written trace failed: %v", err)
		}
		if len(back.Records) != len(tr.Records) {
			t.Fatalf("round trip kept %d of %d records", len(back.Records), len(tr.Records))
		}
		for i, r := range tr.Records {
			b := back.Records[i]
			if b.ArrivalAt != r.ArrivalAt || b.Priority != r.Priority ||
				b.PromptLen != r.PromptLen || b.OutputLen != r.OutputLen {
				t.Fatalf("record %d round-tripped %+v as %+v", i, r, b)
			}
		}
	})
}
