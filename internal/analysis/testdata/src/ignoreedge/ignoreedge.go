// Package ignoreedge exercises IgnoreIndex edge cases: stacked directives
// covering one line, one multi-analyzer directive covering a
// multi-diagnostic line, file-level directives, and staleness tracking.
// The analyzer suite never runs here; ignore_test drives the index
// directly using the declared names below as position anchors.
package ignoreedge

//sddsvet:ignore-file hotalloc -- file-level: everything here is cold setup

//sddsvet:ignore detflow -- stacked: above-line form
var stamp = now() //sddsvet:ignore detflow -- stacked: trailing form

//sddsvet:ignore detflow,locksafe -- one comment, two analyzers, same line
var reduce = 0.0

//sddsvet:ignore eventretain -- deliberately stale: nothing here trips eventretain
var answer = 42

func now() int64 { return 1 }
