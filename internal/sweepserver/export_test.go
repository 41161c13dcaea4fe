package sweepserver

// KeepEnded exposes the retention bound to the external tests.
const KeepEnded = keepEnded
