package service

// SetFlightGap installs the test-only hook that runs after a submission
// registers its flight and before it consults the verdict cache or enqueues.
// Blocking inside the hook holds the flight open, which is how the
// single-flight test forces a concurrent twin submission into the dedup path.
// Must be set before the first Submit.
func (s *Service) SetFlightGap(h func(digest string)) { s.testFlightGap = h }

// VerdictKey exposes the verdict-record key, so a test can plant a record
// the way an older build would have stored it.
var VerdictKey = verdictKey
