package sla

import (
	"fmt"
	"time"
)

// CostModel prices a run: infrastructure cost per node-hour, compensation
// cost per stale read served to a client (the paper's double-booking
// example) and a contractual penalty per minute of SLA violation.
//
// The paper motivates the autonomous system with exactly this trade-off: a
// too-strict static configuration over-allocates resources (high
// infrastructure cost), a too-loose one causes inconsistencies the business
// has to compensate for.
type CostModel struct {
	// NodeCostPerHour is the price of one database node for one hour.
	NodeCostPerHour float64
	// StaleReadCompensation is the expected business cost of serving one
	// stale read (compensation vouchers, double-booking resolution, ...).
	StaleReadCompensation float64
	// ViolationPenaltyPerMinute is the contractual penalty per minute during
	// which the SLA was violated.
	ViolationPenaltyPerMinute float64
}

// DefaultCostModel prices nodes at $0.50/hour, stale reads at $0.02 each and
// SLA violations at $1.00 per violation-minute.
func DefaultCostModel() CostModel {
	return CostModel{
		NodeCostPerHour:           0.50,
		StaleReadCompensation:     0.02,
		ViolationPenaltyPerMinute: 1.00,
	}
}

// Validate reports whether the cost model is usable.
func (c CostModel) Validate() error {
	if c.NodeCostPerHour < 0 || c.StaleReadCompensation < 0 || c.ViolationPenaltyPerMinute < 0 {
		return fmt.Errorf("sla: cost model components must be non-negative: %+v", c)
	}
	return nil
}

// Usage captures the billable quantities of a run.
type Usage struct {
	// NodeSeconds is accumulated (node count × seconds).
	NodeSeconds float64
	// StaleReads is the number of reads that returned stale data.
	StaleReads uint64
	// ViolationTime is the total time during which the SLA was violated.
	ViolationTime time.Duration
}

// Cost is the priced breakdown of a run.
type Cost struct {
	// Infrastructure is the node-hour cost.
	Infrastructure float64
	// Compensation is the stale-read compensation cost.
	Compensation float64
	// Penalty is the SLA violation penalty.
	Penalty float64
}

// Total returns the sum of all components.
func (c Cost) Total() float64 { return c.Infrastructure + c.Compensation + c.Penalty }

// String renders the breakdown for CLI output.
func (c Cost) String() string {
	return fmt.Sprintf("total=$%.2f (infra=$%.2f compensation=$%.2f penalty=$%.2f)",
		c.Total(), c.Infrastructure, c.Compensation, c.Penalty)
}

// Price converts usage into a cost breakdown.
func (c CostModel) Price(u Usage) Cost {
	return Cost{
		Infrastructure: float64(u.NodeSeconds / 3600 * c.NodeCostPerHour),
		Compensation:   float64(float64(u.StaleReads) * c.StaleReadCompensation),
		Penalty:        float64(u.ViolationTime.Minutes() * c.ViolationPenaltyPerMinute),
	}
}
