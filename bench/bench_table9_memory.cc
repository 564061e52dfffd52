// Table 9: memory footprint of the four algorithms vs τ.
// Paper: INCG/FMG footprints (covering sets) grow sharply with τ and blow
// past the budget beyond τ = 1.2 km; NetClus/FMNetClus footprints stay
// small and *shrink* for large τ because coarser instances compress more.
//
// Besides the paper's table, this bench reports the compact-storage
// numbers of the v2 index work: raw vs compressed posting bytes (index
// TL/CC arenas and covering sets) plus whole-process resident bytes, and
// writes them to BENCH_table9.json (override with NETCLUS_BENCH_JSON) so
// CI tracks the compression ratio across PRs.
#include <fstream>

#include "bench_common.h"

#include "netclus/index_io.h"
#include "store/arena.h"

int main(int argc, char** argv) {
  using namespace netclus;
  bench::PrintHeader(
      "Table 9", "Memory footprint of different algorithms vs tau",
      "covering-set footprint grows with tau and hits OOM; NetClus stays "
      "flat/shrinking (coarser instances)");

  data::Dataset d = bench::MakeDataset("beijing-lite", 0.20);
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const index::MultiIndex index = bench::BuildIndex(d);
  const uint64_t budget_bytes = static_cast<uint64_t>(
      util::GetEnvInt("NETCLUS_MEM_BUDGET_MB", 16)) << 20;
  const uint32_t k = 5;

  std::printf("memory budget (paper: 32 GB testbed): %s\n",
              util::HumanBytes(budget_bytes).c_str());
  util::Table table({"tau_km", "INCG", "FMG", "NetClus", "FMNetClus",
                     "NetClus_instance"});
  for (const double tau : {100.0, 200.0, 400.0, 800.0, 1200.0, 1600.0, 2400.0,
                           4000.0, 8000.0}) {
    const bench::ExactRun incg =
        bench::RunExactGreedy(d, k, tau, psi, false, 30, budget_bytes);
    const bench::ExactRun fmg =
        bench::RunExactGreedy(d, k, tau, psi, true, 30, budget_bytes);
    const bench::NetClusRun netclus =
        bench::RunNetClus(d, index, k, tau, psi, false);
    const bench::NetClusRun fm_netclus =
        bench::RunNetClus(d, index, k, tau, psi, true);
    // NetClus per-query memory: the resolved instance + transient covers.
    const uint64_t instance_bytes =
        index.instance(netclus.instance_used).MemoryBytes();
    table.Row()
        .Cell(tau / 1000.0, 1)
        .Cell(incg.oom ? std::string("Out of memory")
                       : util::HumanBytes(incg.memory_bytes))
        .Cell(fmg.oom ? std::string("Out of memory")
                      : util::HumanBytes(fmg.memory_bytes))
        .Cell(util::HumanBytes(netclus.transient_bytes + instance_bytes))
        .Cell(util::HumanBytes(fm_netclus.transient_bytes + instance_bytes))
        .Cell(static_cast<uint64_t>(netclus.instance_used));
  }
  table.PrintText(std::cout);

  // --- compact posting storage (v2 index format) ---------------------------
  // Index postings: what the TL/CC lists cost as delta-varint arenas vs
  // the vector-of-vectors representation they replaced.
  const uint64_t raw_bytes = index.PostingsBytesRaw();
  const uint64_t packed_bytes = index.PostingsBytesCompressed();
  const double ratio = packed_bytes == 0
                           ? 0.0
                           : static_cast<double>(raw_bytes) /
                                 static_cast<double>(packed_bytes);
  std::printf("\nindex postings (all instances): raw %s, compressed %s, "
              "ratio %.2fx\n",
              util::HumanBytes(raw_bytes).c_str(),
              util::HumanBytes(packed_bytes).c_str(), ratio);

  // Covering sets: the same arena codec applied to TC/SC at a mid τ.
  tops::CoverageConfig cov_config;
  cov_config.tau_m = 800.0;
  tops::CoverageIndex coverage =
      tops::CoverageIndex::Build(*d.store, d.sites, cov_config);
  const uint64_t cov_raw = coverage.MemoryBytes();
  coverage.Compress();
  const uint64_t cov_packed = coverage.MemoryBytes();
  const double cov_ratio = cov_packed == 0
                               ? 0.0
                               : static_cast<double>(cov_raw) /
                                     static_cast<double>(cov_packed);
  std::printf("covering sets (tau = 0.8 km): raw %s, compressed %s, "
              "ratio %.2fx\n",
              util::HumanBytes(cov_raw).c_str(),
              util::HumanBytes(cov_packed).c_str(), cov_ratio);

  // --- v3 blocked format: file sizes and Elias-Fano offset tables ----------
  // File-level comparison: flat varints + plain u64 offsets (v2) against
  // 128-entry blocks with skip headers + EF offsets (v3).
  const std::vector<uint8_t> v2_image = index::EncodeIndexV2(index, nullptr);
  const std::vector<uint8_t> v3_image = index::EncodeIndexV3(index, nullptr);
  std::printf("\nindex image: v2 (flat) %s, v3 (blocked+EF) %s\n",
              util::HumanBytes(v2_image.size()).c_str(),
              util::HumanBytes(v3_image.size()).c_str());

  // Offset tables in isolation: rebuild instance-0's TL lists into flat
  // and blocked arenas; the flat offsets block is the plain u64 table,
  // the blocked one is its Elias-Fano replacement.
  const index::ClusterIndex& inst0 = index.instance(0);
  store::PostingArenaBuilder flat_tl(store::ListLayout::kFlat);
  store::PostingArenaBuilder blocked_tl(store::ListLayout::kBlocked);
  for (uint32_t g = 0; g < inst0.num_clusters(); ++g) {
    std::vector<index::TlEntry> list;
    inst0.cluster(g).tl.ForEach(
        [&](const index::TlEntry& e) { list.push_back(e); });
    flat_tl.AddPairList(list);
    blocked_tl.AddPairList(list);
  }
  const uint64_t plain_offset_bytes = flat_tl.Finish().offsets_block().size();
  const uint64_t ef_offset_bytes = blocked_tl.Finish().offsets_block().size();
  const double ef_ratio =
      ef_offset_bytes == 0 ? 0.0
                           : static_cast<double>(plain_offset_bytes) /
                                 static_cast<double>(ef_offset_bytes);
  std::printf("TL offset table (instance 0, %zu lists): plain u64 %s, "
              "Elias-Fano %s, ratio %.2fx\n",
              inst0.num_clusters(),
              util::HumanBytes(plain_offset_bytes).c_str(),
              util::HumanBytes(ef_offset_bytes).c_str(), ef_ratio);

  const uint64_t vmrss = util::ReadVmRssBytes();
  std::printf("whole-process VmRSS at exit: %s\n",
              util::HumanBytes(vmrss).c_str());

  const std::string json_path = bench::JsonOutPath(argc, argv, "BENCH_table9.json");
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"table9_memory\",\n"
       << "  \"index_postings_raw_bytes\": " << raw_bytes << ",\n"
       << "  \"index_postings_compressed_bytes\": " << packed_bytes << ",\n"
       << "  \"index_postings_compression_ratio\": " << ratio << ",\n"
       << "  \"coverage_raw_bytes\": " << cov_raw << ",\n"
       << "  \"coverage_compressed_bytes\": " << cov_packed << ",\n"
       << "  \"coverage_compression_ratio\": " << cov_ratio << ",\n"
       << "  \"index_file_v2_bytes\": " << v2_image.size() << ",\n"
       << "  \"index_file_v3_bytes\": " << v3_image.size() << ",\n"
       << "  \"tl_offsets_plain_bytes\": " << plain_offset_bytes << ",\n"
       << "  \"tl_offsets_ef_bytes\": " << ef_offset_bytes << ",\n"
       << "  \"tl_offsets_ef_ratio\": " << ef_ratio << ",\n"
       << "  \"vmrss_bytes\": " << vmrss << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
