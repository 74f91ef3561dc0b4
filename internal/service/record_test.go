package service_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/service"
)

// corpusRecords runs every registry and hostile app once under the service's
// configuration and returns the verdict record each run would store.
func corpusRecords(tb testing.TB) map[string]service.VerdictRecord {
	tb.Helper()
	r, err := core.NewRunner()
	if err != nil {
		tb.Fatal(err)
	}
	recs := map[string]service.VerdictRecord{}
	for _, app := range apps.AllApps() {
		rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget, FlowLog: true, Runner: r})
		recs[app.Name] = service.NewVerdictRecord(rep)
	}
	return recs
}

// TestVerdictRecordRoundTrip: decode(encode(r)) == r for the record of every
// corpus app, hostile-rasp's 49,152-line flow log included.
func TestVerdictRecordRoundTrip(t *testing.T) {
	recs := corpusRecords(t)
	if n := len(recs["hostile-rasp"].FinalLog); n < 40000 {
		t.Fatalf("hostile-rasp logged %d lines; the flood case would be vacuous", n)
	}
	for name, rec := range recs {
		payload, err := service.EncodeVerdictRecord(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := service.DecodeVerdictRecord(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: decode(encode(r)) != r", name)
		}
	}
}

// TestVerdictRecordOverlongCountAllocatesNothing: a payload whose log line
// count exceeds the bytes left is refused before anything is allocated.
func TestVerdictRecordOverlongCountAllocatesNothing(t *testing.T) {
	head := []byte(`{"chain":[{"mode":"ndroid","verdict":"clean"}]}`)
	for _, count := range []uint64{3, 1 << 20, math.MaxUint32, math.MaxUint64} {
		p := binary.AppendUvarint(nil, uint64(len(head)))
		p = append(p, head...)
		p = binary.AppendUvarint(p, count)
		p = append(p, 1, 'x') // one line of one byte
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, err = service.DecodeVerdictRecord(p) })
		if err == nil {
			t.Fatalf("count %d: overlong count accepted", count)
		}
		if allocs != 0 {
			t.Errorf("count %d: %v allocations before refusing", count, allocs)
		}
	}
}

// FuzzVerdictRecord decodes arbitrary KindVerdict payloads. The decoder must
// return an error or a record, never panic; a record holds no more log lines
// than the payload has bytes; and its encoding is a fixed point, so a
// replay re-stored and loaded again is the same replay. The seeds are the
// committed corner cases plus the encoded records of the corpus apps whose
// records are small enough to mutate.
func FuzzVerdictRecord(f *testing.F) {
	for _, rec := range corpusRecords(f) {
		if payload, err := service.EncodeVerdictRecord(rec); err == nil && len(payload) <= 16<<10 {
			f.Add(payload)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := service.DecodeVerdictRecord(payload)
		if err != nil {
			return
		}
		if len(rec.FinalLog) > len(payload) {
			t.Fatalf("%d log lines from a %d-byte payload", len(rec.FinalLog), len(payload))
		}
		once, err := service.EncodeVerdictRecord(rec)
		if err != nil {
			t.Fatalf("decoded record does not encode: %v", err)
		}
		again, err := service.DecodeVerdictRecord(once)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		twice, err := service.EncodeVerdictRecord(again)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point (%v)", err)
		}
	})
}
