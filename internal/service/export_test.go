package service

import (
	"encoding/json"

	"repro/internal/cas"
)

// SetFlightGap installs the test-only hook that runs after a submission
// registers its flight and before it consults the verdict cache or enqueues.
// Blocking inside the hook holds the flight open, which is how the
// single-flight test forces a concurrent twin submission into the dedup path.
// Must be set before the first Submit.
func (s *Service) SetFlightGap(h func(digest string)) { s.testFlightGap = h }

// VerdictKey exposes the verdict-record key, so a test can plant a record
// the way an older build would have stored it.
var VerdictKey = verdictKey

// LegacyVerdictJSON decodes a KindVerdict payload and renders it as the
// all-JSON object verdict schemas up to v6 stored: the head's fields plus
// final_log and log_hash.
func LegacyVerdictJSON(payload []byte) (map[string]json.RawMessage, error) {
	rec, err := decodeVerdictRecord(payload)
	if err != nil {
		return nil, err
	}
	head, err := json.Marshal(&rec)
	if err != nil {
		return nil, err
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(head, &obj); err != nil {
		return nil, err
	}
	if obj["final_log"], err = json.Marshal(rec.FinalLog); err != nil {
		return nil, err
	}
	obj["log_hash"], err = json.Marshal(cas.DigestStrings(rec.FinalLog...))
	return obj, err
}

// VerdictRecord is the persistent verdict record, for tests that round-trip
// it.
type VerdictRecord = verdictRecord

var (
	NewVerdictRecord    = newVerdictRecord
	DecodeVerdictRecord = decodeVerdictRecord
)

// EncodeVerdictRecord is the KindVerdict payload of r.
func EncodeVerdictRecord(r VerdictRecord) ([]byte, error) { return r.encode() }
