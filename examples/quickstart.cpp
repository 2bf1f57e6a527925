/**
 * @file
 * Quickstart: train one GNNMark workload on the simulated V100 and
 * print the paper's headline metrics for it.
 *
 * Usage: quickstart [workload-name] (default: ARGA)
 */

#include <iostream>

#include "core/characterization.hh"
#include "core/reports.hh"
#include "core/suite.hh"

using namespace gnnmark;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "ARGA";

    RunOptions options;
    options.iterations = 4;
    options.scale = 0.5;
    CharacterizationRunner runner(options);

    std::cout << "Training " << name
              << " on a simulated V100 (scaled dataset)...\n\n";
    WorkloadProfile profile = runner.run(name);

    std::cout << "Loss trajectory:";
    for (float loss : profile.losses)
        std::cout << " " << loss;
    std::cout << "\n\n";

    reports::printWorkloadSummary(profile, std::cout);
    return 0;
}
