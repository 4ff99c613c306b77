package main

// golden pins each workload's answer hash at the default seed and full
// size: every simulated result, comparison, sampling arm and plan. A
// change that alters what the program computes changes these; update
// them only for an intended behaviour change, and say so.
var golden = map[string]string{
	"oltp_l2assoc":    "886760f0c0f060c7",
	"splash_adaptive": "2775c02927556432",
	"plan_stats":      "a2b75affb3d5d092",
}
