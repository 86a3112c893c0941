// Explicit instantiations for the element type the paper evaluates
// (random 64-bit integers). Keeps template errors inside the library build
// and speeds up every downstream target.
#include <cstdint>
#include <functional>

#include "sort/sort.hpp"

namespace tlm::sort {

template void merge_runs_charged<std::uint64_t, std::less<std::uint64_t>>(
    Machine&, std::size_t, const std::vector<Run<std::uint64_t>>&,
    std::uint64_t*, std::less<std::uint64_t>);

template void parallel_multiway_merge<std::uint64_t,
                                      std::less<std::uint64_t>>(
    Machine&, const std::vector<Run<std::uint64_t>>&,
    std::span<std::uint64_t>, std::less<std::uint64_t>,
    const std::function<void(std::size_t)>&);

template void multiway_merge_sort<std::uint64_t, std::less<std::uint64_t>>(
    Machine&, std::span<std::uint64_t>, std::less<std::uint64_t>);

template void nm_sort_into<std::uint64_t, std::less<std::uint64_t>>(
    Machine&, std::span<const std::uint64_t>, std::span<std::uint64_t>,
    NMSortOptions, std::less<std::uint64_t>);

template void we_sort_into<std::uint64_t, std::less<std::uint64_t>>(
    Machine&, std::span<const std::uint64_t>, std::span<std::uint64_t>,
    WESortOptions, std::less<std::uint64_t>);

template ScratchpadSortReport
scratchpad_sort<std::uint64_t, std::less<std::uint64_t>>(
    Machine&, std::span<std::uint64_t>, ScratchpadSortOptions,
    std::less<std::uint64_t>);

template void parallel_scratchpad_sort<std::uint64_t,
                                       std::less<std::uint64_t>>(
    Machine&, std::span<std::uint64_t>, ParallelScratchpadSortOptions,
    std::less<std::uint64_t>);

template void gnu_like_sort<std::uint64_t, std::less<std::uint64_t>>(
    Machine&, std::span<std::uint64_t>, std::less<std::uint64_t>);

}  // namespace tlm::sort
