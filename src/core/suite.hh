/**
 * @file
 * The GNNMark benchmark suite registry (the paper's Table I): the
 * eight workload configurations and a factory to instantiate them.
 */

#ifndef GNNMARK_CORE_SUITE_HH
#define GNNMARK_CORE_SUITE_HH

#include <memory>
#include <string>
#include <vector>

#include "models/workload.hh"

namespace gnnmark {

/** One Table I row: what a suite workload reproduces. */
struct TableOneRow
{
    std::string workload; ///< suite name, e.g. "PSAGE-MVL"
    std::string model;
    std::string framework;
    std::string domain;
    std::string dataset;
    std::string graphType;
};

/** Factory for the suite's workloads. */
class BenchmarkSuite
{
  public:
    /** The paper's Table I, one row per workload configuration. */
    static const std::vector<TableOneRow> &tableOne();

    /**
     * Names of all workload configurations, in Table I order:
     * PSAGE-MVL, PSAGE-NWP, STGCN, DGCN, GW, KGNNL, KGNNH, ARGA,
     * TLSTM.
     */
    static const std::vector<std::string> &workloadNames();

    /** Instantiate one workload by name (fatal on unknown name). */
    static std::unique_ptr<Workload> create(const std::string &name);

    /** Instantiate every workload. */
    static std::vector<std::unique_ptr<Workload>> createAll();
};

} // namespace gnnmark

#endif // GNNMARK_CORE_SUITE_HH
