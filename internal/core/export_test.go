package core

// SummaryStatic exposes the unvalidated summary tier to tests. It is no user
// setting: it trusts statically sound transfers without mutation validation,
// and TestStaticSummaryTierDiverges keeps the hostile exhibit that shows why
// production summaries must be validated.
const SummaryStatic = summaryStatic
