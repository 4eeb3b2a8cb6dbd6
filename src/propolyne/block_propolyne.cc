#include "propolyne/block_propolyne.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "common/macros.h"
#include "storage/allocation.h"

namespace aims::propolyne {

Result<BlockedCube> BlockedCube::Make(
    const DataCube* cube, storage::BlockDevice* device,
    std::vector<size_t> virtual_block_sizes, storage::BlockCache* cache) {
  AIMS_CHECK(cube != nullptr && device != nullptr);
  AIMS_CHECK(cache == nullptr || cache->device() == device);
  const CubeSchema& schema = cube->schema();
  if (virtual_block_sizes.size() != schema.num_dims()) {
    return Status::InvalidArgument("BlockedCube: virtual block arity");
  }
  BlockedCube blocked(cube, device, cache);
  blocked.virtual_block_sizes_ = virtual_block_sizes;
  blocked.block_size_items_ = 1;
  for (size_t b : virtual_block_sizes) blocked.block_size_items_ *= b;
  if (blocked.block_size_items_ * sizeof(double) > device->block_size_bytes()) {
    return Status::InvalidArgument(
        "BlockedCube: block items exceed device block size");
  }

  // Per-dimension error-tree tiling maps (Cartesian product = real blocks).
  size_t total_blocks = 1;
  for (size_t d = 0; d < schema.num_dims(); ++d) {
    storage::SubtreeTilingAllocator tiling(schema.extents[d],
                                           virtual_block_sizes[d]);
    std::vector<size_t> map(schema.extents[d]);
    for (size_t i = 0; i < schema.extents[d]; ++i) map[i] = tiling.BlockOf(i);
    blocked.dim_block_of_.push_back(std::move(map));
    blocked.per_dim_blocks_.push_back(tiling.num_blocks());
    total_blocks *= tiling.num_blocks();
  }

  // Assign every coefficient to its block, then write the blocks.
  blocked.block_contents_.resize(total_blocks);
  const size_t total = schema.total_size();
  std::vector<size_t> idx(schema.num_dims(), 0);
  for (size_t flat = 0; flat < total; ++flat) {
    size_t block = 0;
    for (size_t d = 0; d < schema.num_dims(); ++d) {
      block = block * blocked.per_dim_blocks_[d] +
              blocked.dim_block_of_[d][idx[d]];
    }
    blocked.block_contents_[block].push_back(flat);
    for (size_t d = schema.num_dims(); d-- > 0;) {
      if (++idx[d] < schema.extents[d]) break;
      idx[d] = 0;
    }
  }
  const std::vector<double>& wavelet = cube->wavelet();
  blocked.device_blocks_.resize(total_blocks);
  for (size_t b = 0; b < total_blocks; ++b) {
    std::vector<uint8_t> payload(blocked.block_contents_[b].size() *
                                 sizeof(double));
    for (size_t slot = 0; slot < blocked.block_contents_[b].size(); ++slot) {
      double v = wavelet[blocked.block_contents_[b][slot]];
      std::memcpy(payload.data() + slot * sizeof(double), &v, sizeof(double));
    }
    blocked.device_blocks_[b] = device->Allocate();
    AIMS_RETURN_NOT_OK(
        cache != nullptr
            ? cache->Write(blocked.device_blocks_[b], payload)
            : device->Write(blocked.device_blocks_[b], payload));
  }
  return blocked;
}

size_t BlockedCube::BlockOfFlat(size_t flat) const {
  const CubeSchema& schema = cube_->schema();
  size_t block = 0;
  // Decode row-major flat index back to per-dimension coordinates.
  size_t rest = flat;
  std::vector<size_t> coords(schema.num_dims());
  for (size_t d = schema.num_dims(); d-- > 0;) {
    coords[d] = rest % schema.extents[d];
    rest /= schema.extents[d];
  }
  for (size_t d = 0; d < schema.num_dims(); ++d) {
    block = block * per_dim_blocks_[d] + dim_block_of_[d][coords[d]];
  }
  return block;
}

Result<BlockProgressiveResult> BlockedCube::EvaluateProgressive(
    const RangeSumQuery& query, BlockImportance importance,
    const BlockStepObserver& observer) const {
  AIMS_ASSIGN_OR_RETURN(auto product, evaluator_.ProductCoefficients(query));

  // Group the query coefficients by the block that stores their partner
  // data coefficient, and score each block.
  struct BlockWork {
    std::vector<std::pair<size_t, double>> coefficients;  // (flat, q)
    double score = 0.0;
    double query_energy = 0.0;
  };
  std::map<size_t, BlockWork> per_block;
  for (const auto& [flat, q] : product) {
    BlockWork& work = per_block[BlockOfFlat(flat)];
    work.coefficients.emplace_back(flat, q);
    work.query_energy += q * q;
    switch (importance) {
      case BlockImportance::kQueryEnergy:
        work.score += q * q;
        break;
      case BlockImportance::kMaxQueryCoeff:
        work.score = std::max(work.score, std::fabs(q));
        break;
    }
  }
  std::vector<std::pair<size_t, const BlockWork*>> order;
  order.reserve(per_block.size());
  double remaining_query_energy = 0.0;
  for (const auto& [block, work] : per_block) {
    order.emplace_back(block, &work);
    remaining_query_energy += work.query_energy;
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->score > b.second->score;
  });

  BlockProgressiveResult result;
  result.total_blocks_needed = order.size();
  double acc = 0.0;
  // The data energy is known at population time (kept by the cube); it
  // upper-bounds the unread coefficients' energy.
  double remaining_data_energy = cube_->wavelet_energy();
  size_t blocks_read = 0;
  size_t cache_hits = 0;
  for (const auto& [block, work] : order) {
    bool hit = false;
    AIMS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                          cache_ != nullptr
                              ? cache_->Read(device_blocks_[block], &hit)
                              : device_->Read(device_blocks_[block]));
    ++blocks_read;
    if (hit) ++cache_hits;
    // Decode only the needed slots.
    const std::vector<size_t>& contents = block_contents_[block];
    double block_data_energy = 0.0;
    for (size_t slot = 0; slot < contents.size(); ++slot) {
      double v = 0.0;
      std::memcpy(&v, payload.data() + slot * sizeof(double), sizeof(double));
      block_data_energy += v * v;
    }
    for (const auto& [flat, q] : work->coefficients) {
      size_t slot = static_cast<size_t>(
          std::lower_bound(contents.begin(), contents.end(), flat) -
          contents.begin());
      AIMS_CHECK(slot < contents.size() && contents[slot] == flat);
      double v = 0.0;
      std::memcpy(&v, payload.data() + slot * sizeof(double), sizeof(double));
      acc += q * v;
    }
    remaining_query_energy -= work->query_energy;
    remaining_data_energy -= block_data_energy;
    BlockStep step;
    step.blocks_read = blocks_read;
    step.cache_hits = cache_hits;
    step.estimate = acc;
    step.error_bound = std::sqrt(std::max(remaining_query_energy, 0.0)) *
                       std::sqrt(std::max(remaining_data_energy, 0.0));
    result.steps.push_back(step);
    if (observer && observer(step) == StepControl::kStop &&
        blocks_read < order.size()) {
      result.complete = false;
      break;
    }
  }
  if (result.steps.empty()) {
    result.steps.push_back(BlockStep{0, 0, 0.0, 0.0});
  } else if (result.complete) {
    result.steps.back().error_bound = 0.0;  // everything needed was read
  }
  result.exact = acc;
  return result;
}

Result<double> BlockedCube::Evaluate(const RangeSumQuery& query) const {
  AIMS_ASSIGN_OR_RETURN(BlockProgressiveResult result,
                        EvaluateProgressive(query));
  return result.exact;
}

}  // namespace aims::propolyne
