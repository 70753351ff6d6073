package bench

// Machine-readable results. Experiments that report machine-readable
// cells (failover today) pass each one through Config.Record in addition
// to their human-readable tables, and cmd/whbench's -json flag collects
// the cells into one run document.

// Result is one benchmark cell: an operation measured on one index at one
// goroutine count. MOPS is million operations per second aggregated over
// all workers, or the cell's own unit where Op names one (failover's
// millisecond rows).
type Result struct {
	Exp     string  `json:"exp"`
	Op      string  `json:"op"`
	Index   string  `json:"index"`
	Threads int     `json:"threads"`
	Keys    int     `json:"keys"`
	MOPS    float64 `json:"mops"`
}

// record reports one cell to the -json collector, if any is installed.
func (c *Config) record(r Result) {
	if c.Record != nil {
		c.Record(r)
	}
}
