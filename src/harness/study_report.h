// Study reports: the paper's figures and tables, the ablations and the
// validation tables, each rendered as text from one sweep's results
// (`dresar-sweep --report=fig8,table1`). A report reads the cells it needs by
// config tag, so any spec that lists those cells can feed it:
//
//   fig1 fig8 fig9 fig10 fig11 table1  sweeps/fig8.spec
//   table2 table3                      any spec (reads only scale/trace_refs)
//   scaling                            sweeps/scaling.spec
//   traffic                            sweeps/traffic_tail.spec
//   assoc pending_buffer snoop_inval   sweeps/ablation_<name>.spec
//   switch_cache network               sweeps/ablation_<name>.spec
//   validation                         sweeps/validation.spec
//   flit_buffers                       sweeps/flit_buffers.spec
//
// Reports read nothing but the cells' run records (sim/run_recorder.h), so
// a cell resumed or merged from a job store renders exactly like a fresh one.
#pragma once

#include <string>
#include <vector>

#include "harness/run_context.h"
#include "harness/sweep_spec.h"

namespace dresar::harness {

/// Every report name, comma-separated, for usage text and errors.
[[nodiscard]] const char* reportNameList();

[[nodiscard]] bool isReport(const std::string& name);

/// True when the report reads only the spec's scale and trace length
/// (table2, table3), so it needs no simulation.
[[nodiscard]] bool isConfigOnlyReport(const std::string& name);

/// One error per cell the reports read that `jobs` (an expanded spec) does
/// not list, naming the report, the workload and the config tag. Empty means
/// every report can render from a run of `jobs`.
[[nodiscard]] std::vector<std::string> missingReportCells(const std::vector<std::string>& names,
                                                          const SweepSpec& spec,
                                                          const std::vector<JobSpec>& jobs);

/// Render the reports, in order and separated by a blank line, from the
/// replica-1 results of a run of `spec`.
[[nodiscard]] std::string renderReports(const std::vector<std::string>& names,
                                        const SweepSpec& spec,
                                        const std::vector<JobResult>& results);

}  // namespace dresar::harness
