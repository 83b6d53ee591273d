#include "matchers/dl_sims.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "common/check.h"
#include "common/rng.h"
#include "embed/context_encoder.h"
#include "text/kernels.h"

namespace rlbench::matchers {

const char* DlMethodName(DlMethod method) {
  switch (method) {
    case DlMethod::kDeepMatcher:
      return "DeepMatcher";
    case DlMethod::kEmTransformerB:
      return "EMTransformer-B";
    case DlMethod::kEmTransformerR:
      return "EMTransformer-R";
    case DlMethod::kGnem:
      return "GNEM";
    case DlMethod::kDitto:
      return "DITTO";
    case DlMethod::kHierMatcher:
      return "HierMatcher";
  }
  return "DL";
}

namespace {
// Per-column alignment feature slots for the transformer family (the
// widest catalog schema has 8 attributes).
constexpr size_t kMaxColumnFeatures = 8;

size_t Side(bool left_side) {
  return left_side ? data::ColumnarStore::kLeft : data::ColumnarStore::kRight;
}

/// CosineSimilarity01 of every (a_i, b_j) token pair into
/// out[i * b.size() + j]. One batched affine with a zero bias computes each
/// dot with the single ascending accumulator of embed::Dot, and the norms
/// come precomputed, so every entry is bit-identical to
/// embed::CosineSimilarity01(a[i], b[j]) — and, by symmetry, to
/// CosineSimilarity01(b[j], a[i]).
void TokenCosines(const std::vector<embed::Vec>& a,
                  const std::vector<double>& norm_a,
                  const std::vector<embed::Vec>& b,
                  const std::vector<double>& norm_b,
                  std::vector<double>* out) {
  out->assign(a.size() * b.size(), 0.0);
  if (out->empty()) return;
  size_t dim = a[0].size();
  std::vector<double> rows(a.size() * dim);
  for (size_t i = 0; i < a.size(); ++i) {
    RLBENCH_CHECK_EQ(a[i].size(), dim);
    std::copy(a[i].begin(), a[i].end(), rows.begin() + i * dim);
  }
  std::vector<float> cols(dim * b.size());
  for (size_t j = 0; j < b.size(); ++j) {
    RLBENCH_CHECK_EQ(b[j].size(), dim);
    for (size_t k = 0; k < dim; ++k) cols[k * b.size() + j] = b[j][k];
  }
  std::vector<double> zero(a.size(), 0.0);
  text::kernels::BatchedAffineF32(rows.data(), zero.data(), a.size(), dim,
                                  cols.data(), b.size(), out->data());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      double& cell = (*out)[i * b.size() + j];
      cell = embed::CosineSimilarity01FromDot(cell, norm_a[i], norm_b[j]);
    }
  }
}

/// Each token's best cosine on the other side of an n_a x n_b matrix (0
/// when there is none): best_a[i] over row i, best_b[j] over column j.
/// Given attributes, only same-attribute pairs count. Every maximum scans
/// its candidates in ascending index order.
void BestMatches(const std::vector<double>& cosines, size_t n_a, size_t n_b,
                 const std::vector<size_t>* attr_a,
                 const std::vector<size_t>* attr_b,
                 std::vector<double>* best_a, std::vector<double>* best_b) {
  best_a->assign(n_a, 0.0);
  best_b->assign(n_b, 0.0);
  for (size_t i = 0; i < n_a; ++i) {
    for (size_t j = 0; j < n_b; ++j) {
      if (attr_a != nullptr && (*attr_a)[i] != (*attr_b)[j]) continue;
      double c = cosines[i * n_b + j];
      (*best_a)[i] = std::max((*best_a)[i], c);
      (*best_b)[j] = std::max((*best_b)[j], c);
    }
  }
}

/// Mean of the (up to) three smallest values: min-pooling over the
/// worst-aligned tokens.
double WorstThreeMean(std::vector<double> bests) {
  std::sort(bests.begin(), bests.end());
  size_t k = std::min<size_t>(3, bests.size());
  double worst = 0.0;
  for (size_t i = 0; i < k; ++i) worst += bests[i];
  return k > 0 ? worst / static_cast<double>(k) : 0.0;
}

}  // namespace

struct DlMatcher::RunState {
  RunState(const MatchingContext& context, embed::ContextEncoder encoder)
      : context(context), encoder(std::move(encoder)) {}

  const MatchingContext& context;
  /// The dynamic model; it memoizes its own static token vectors.
  embed::ContextEncoder encoder;
  /// static_model_ vector of each token seen in this run.
  std::unordered_map<std::string, embed::Vec> token_vecs;
  /// Record representations, per side.
  std::unordered_map<uint32_t, RecordRep> reps[2];
};

DlMatcher::DlMatcher(DlMethod method, int epochs, DlOptions options)
    : method_(method),
      epochs_(epochs),
      options_(options),
      static_model_(options.attr_dim, options.seed ^ 0x57A71CULL) {}

std::string DlMatcher::name() const {
  return std::string(DlMethodName(method_)) + " (" + std::to_string(epochs_) +
         ")";
}

std::vector<std::string> DlMatcher::SequenceTokens(
    const MatchingContext& context, bool left_side, uint32_t record) const {
  auto seq = context.columnar().TokenSeqAll(Side(left_side), record);
  if (method_ == DlMethod::kDitto) {
    // DITTO summarises long inputs by TF-IDF weight instead of truncating.
    return context.tfidf().Summarize(
        std::vector<std::string>(seq.begin(), seq.end()),
        options_.max_sequence_tokens);
  }
  seq = seq.first(std::min(seq.size(), options_.max_sequence_tokens));
  return std::vector<std::string>(seq.begin(), seq.end());
}

DlMatcher::RecordRep DlMatcher::BuildRep(RunState* state, bool left_side,
                                         uint32_t record, Rng* dropout) const {
  RecordRep rep;
  const MatchingContext& context = state->context;
  const data::ColumnarStore& store = context.columnar();
  size_t side = Side(left_side);
  size_t num_attrs = store.num_attrs();
  auto keep = [&] {
    return dropout == nullptr ||
           !dropout->Bernoulli(options_.ditto_token_dropout);
  };

  auto token_vec = [&](const std::string& token) -> const embed::Vec& {
    auto it = state->token_vecs.find(token);
    if (it == state->token_vecs.end()) {
      it = state->token_vecs.emplace(token, static_model_.EmbedToken(token))
               .first;
    }
    return it->second;
  };

  switch (method_) {
    case DlMethod::kDeepMatcher: {
      rep.attr_vecs.resize(num_attrs);
      for (size_t a = 0; a < num_attrs; ++a) {
        auto tokens = store.TokenSeqAttr(side, record, a);
        embed::Vec v(options_.attr_dim, 0.0F);
        for (std::string_view token : tokens) {
          embed::AddInPlace(&v, token_vec(std::string(token)));
        }
        if (!tokens.empty()) {
          embed::ScaleInPlace(&v, 1.0F / static_cast<float>(tokens.size()));
          embed::L2NormalizeInPlace(&v);
        }
        rep.attr_vecs[a] = std::move(v);
      }
      break;
    }
    case DlMethod::kEmTransformerB:
    case DlMethod::kEmTransformerR:
    case DlMethod::kGnem:
    case DlMethod::kDitto: {
      std::vector<std::string> tokens =
          SequenceTokens(context, left_side, record);
      if (dropout != nullptr) {
        std::vector<std::string> kept;
        kept.reserve(tokens.size());
        for (auto& token : tokens) {
          if (keep()) kept.push_back(std::move(token));
        }
        tokens = std::move(kept);
      }
      rep.seq_vec = state->encoder.EncodeSequence(tokens);
      if (rep.seq_vec.empty()) rep.seq_vec.assign(options_.seq_dim, 0.0F);
      // Token vectors for cross-sequence alignment features, capped like
      // HierMatcher's alignment window. Subword (static) vectors keep the
      // token identity crisp; the dynamic context enters via seq_vec.
      // The attribute id of each token is known because the serialized
      // input carries column tags (the "[COL] a [VAL] v" convention of
      // DITTO/EMTransformer), so same-column alignment is available to the
      // heterogeneous methods without requiring aligned schemas.
      for (size_t a = 0; a < num_attrs &&
                         rep.token_vecs.size() < options_.max_alignment_tokens;
           ++a) {
        for (std::string_view view : store.TokenSeqAttr(side, record, a)) {
          if (rep.token_vecs.size() >= options_.max_alignment_tokens) break;
          if (!keep()) continue;
          std::string token(view);
          rep.token_vecs.push_back(token_vec(token));
          rep.token_idf.push_back(context.tfidf().Idf(token));
          rep.token_attr.push_back(a);
        }
      }
      break;
    }
    case DlMethod::kHierMatcher: {
      for (size_t a = 0; a < num_attrs &&
                         rep.token_vecs.size() < options_.max_alignment_tokens;
           ++a) {
        for (std::string_view view : store.TokenSeqAttr(side, record, a)) {
          if (rep.token_vecs.size() >= options_.max_alignment_tokens) break;
          std::string token(view);
          rep.token_vecs.push_back(token_vec(token));
          rep.token_idf.push_back(context.tfidf().Idf(token));
          rep.token_attr.push_back(a);
        }
      }
      break;
    }
  }
  rep.token_norms.reserve(rep.token_vecs.size());
  for (const embed::Vec& vec : rep.token_vecs) {
    rep.token_norms.push_back(embed::Norm(vec));
  }
  return rep;
}

const DlMatcher::RecordRep& DlMatcher::Rep(RunState* state, bool left_side,
                                           uint32_t record) const {
  auto& cache = state->reps[left_side ? 0 : 1];
  auto it = cache.find(record);
  if (it == cache.end()) {
    it = cache.emplace(record, BuildRep(state, left_side, record, nullptr))
             .first;
  }
  return it->second;
}

size_t DlMatcher::FeatureDim(size_t num_attrs) const {
  switch (method_) {
    case DlMethod::kDeepMatcher:
      return 2 * options_.attr_dim * num_attrs;
    case DlMethod::kEmTransformerB:
    case DlMethod::kEmTransformerR:
    case DlMethod::kGnem:
    case DlMethod::kDitto:
      // 3 sequence sims + 8 global alignment stats + 4 same-column
      // alignment stats + kMaxColumnFeatures per-column means + 2x2
      // chunk-pooled interactions.
      return 3 + 8 + 4 + kMaxColumnFeatures + 4;
    case DlMethod::kHierMatcher:
      return 4 * num_attrs + 2;
  }
  return 0;
}

std::vector<float> DlMatcher::PairFeatures(const RecordRep& left,
                                           const RecordRep& right) const {
  std::vector<float> features;
  switch (method_) {
    case DlMethod::kDeepMatcher: {
      features.reserve(2 * options_.attr_dim * left.attr_vecs.size());
      for (size_t a = 0; a < left.attr_vecs.size(); ++a) {
        embed::Vec interaction =
            embed::InteractionFeatures(left.attr_vecs[a], right.attr_vecs[a]);
        features.insert(features.end(), interaction.begin(),
                        interaction.end());
      }
      break;
    }
    case DlMethod::kEmTransformerB:
    case DlMethod::kEmTransformerR:
    case DlMethod::kGnem:
    case DlMethod::kDitto: {
      features.push_back(static_cast<float>(
          embed::CosineSimilarity01(left.seq_vec, right.seq_vec)));
      features.push_back(static_cast<float>(
          embed::EuclideanSimilarity(left.seq_vec, right.seq_vec)));
      features.push_back(static_cast<float>(
          embed::WassersteinSimilarity(left.seq_vec, right.seq_vec)));
      // Every alignment statistic below reads one token-cosine matrix:
      // each token's best match on the other side, over all tokens and
      // within its own attribute, in both directions.
      size_t nl = left.token_vecs.size();
      size_t nr = right.token_vecs.size();
      std::vector<double> cosines;
      TokenCosines(left.token_vecs, left.token_norms, right.token_vecs,
                   right.token_norms, &cosines);
      std::vector<double> best_l2r, best_r2l, same_l2r, same_r2l;
      BestMatches(cosines, nl, nr, nullptr, nullptr, &best_l2r, &best_r2l);
      BestMatches(cosines, nl, nr, &left.token_attr, &right.token_attr,
                  &same_l2r, &same_r2l);
      const bool aligned = nl > 0 && nr > 0;

      // Cross-sequence token alignment (the cross-encoder's attention
      // between the two sequences): mean / max / IDF-weighted mean of each
      // token's best match on the other side, both directions.
      auto align = [aligned](const RecordRep& from,
                             const std::vector<double>& bests, float out[4]) {
        out[0] = out[1] = out[2] = out[3] = 0.0F;
        if (!aligned) return;
        double sum = 0.0;
        double best_overall = 0.0;
        double idf_sum = 0.0;
        double idf_weight = 0.0;
        for (size_t i = 0; i < bests.size(); ++i) {
          sum += bests[i];
          best_overall = std::max(best_overall, bests[i]);
          idf_sum += from.token_idf[i] * bests[i];
          idf_weight += from.token_idf[i];
        }
        out[0] = static_cast<float>(sum / static_cast<double>(bests.size()));
        out[1] = static_cast<float>(best_overall);
        out[2] = static_cast<float>(
            idf_weight > 0.0 ? idf_sum / idf_weight : 0.0);
        // Min-pooling over the worst-aligned tokens: the attention head
        // that notices "one token has no counterpart" — the signal that
        // separates a typo'd duplicate from a sibling entity.
        out[3] = static_cast<float>(WorstThreeMean(bests));
      };
      float l2r[4];
      float r2l[4];
      align(left, best_l2r, l2r);
      align(right, best_r2l, r2l);
      features.insert(features.end(), {l2r[0], l2r[1], l2r[2], l2r[3],
                                       r2l[0], r2l[1], r2l[2], r2l[3]});
      // Same-column alignment (available through the serialized column
      // tags): idf-weighted mean and worst-3 mean of each token's best
      // match *within the same attribute*, both directions.
      auto column_align = [aligned](const RecordRep& from,
                                    const std::vector<double>& bests,
                                    float out[2]) {
        out[0] = out[1] = 0.0F;
        if (!aligned) return;
        double idf_sum = 0.0;
        double idf_weight = 0.0;
        for (size_t i = 0; i < bests.size(); ++i) {
          idf_sum += from.token_idf[i] * bests[i];
          idf_weight += from.token_idf[i];
        }
        out[0] = static_cast<float>(
            idf_weight > 0.0 ? idf_sum / idf_weight : 0.0);
        out[1] = static_cast<float>(WorstThreeMean(bests));
      };
      float col_l2r[2];
      float col_r2l[2];
      column_align(left, same_l2r, col_l2r);
      column_align(right, same_r2l, col_r2l);
      features.insert(features.end(),
                      {col_l2r[0], col_l2r[1], col_r2l[0], col_r2l[1]});
      // Per-column alignment means (two directions averaged), one slot per
      // column up to kMaxColumnFeatures: the hierarchical decomposition the
      // column tags make available to heterogeneous methods.
      {
        std::vector<double> sum(kMaxColumnFeatures, 0.0);
        std::vector<double> weight(kMaxColumnFeatures, 0.0);
        auto accumulate = [&](const RecordRep& from,
                              const std::vector<double>& bests) {
          for (size_t i = 0; i < bests.size(); ++i) {
            size_t a = from.token_attr[i];
            if (a >= kMaxColumnFeatures) continue;
            sum[a] += bests[i];
            weight[a] += 1.0;
          }
        };
        accumulate(left, same_l2r);
        accumulate(right, same_r2l);
        for (size_t a = 0; a < kMaxColumnFeatures; ++a) {
          features.push_back(static_cast<float>(
              weight[a] > 0.0 ? sum[a] / weight[a] : 0.0));
        }
      }
      // Chunk-pooled interaction of the sequence vectors: mean |a-b| and
      // mean a*b over 2 contiguous chunks each — a low-dimensional proxy
      // for the untrained interaction layer that behaves well on the small
      // training sets of Table III.
      {
        size_t dim = left.seq_vec.size();
        size_t chunks = 2;
        size_t chunk = std::max<size_t>(1, dim / chunks);
        for (size_t c = 0; c < chunks; ++c) {
          size_t begin = c * chunk;
          size_t end = c + 1 == chunks ? dim : std::min(dim, begin + chunk);
          double diff = 0.0;
          for (size_t i = begin; i < end; ++i) {
            diff += std::fabs(double{left.seq_vec[i]} - right.seq_vec[i]);
          }
          features.push_back(static_cast<float>(
              begin < end ? diff / static_cast<double>(end - begin) : 0.0));
        }
        for (size_t c = 0; c < chunks; ++c) {
          size_t begin = c * chunk;
          size_t end = c + 1 == chunks ? dim : std::min(dim, begin + chunk);
          double had = 0.0;
          for (size_t i = begin; i < end; ++i) {
            had += double{left.seq_vec[i]} * right.seq_vec[i];
          }
          features.push_back(static_cast<float>(
              begin < end ? had / static_cast<double>(end - begin) : 0.0));
        }
      }
      break;
    }
    case DlMethod::kHierMatcher: {
      // Cross-attribute token alignment: every token finds its best match
      // on the other side regardless of attribute (the heterogeneous step),
      // then alignment quality is pooled per attribute of the *query* side.
      // Known defect, kept because fixing it changes published results: the
      // block is sized by the highest attribute the capped token windows
      // reach, not by the schema, so for some pairs the two "overall"
      // features land in an attribute slot.
      size_t num_attrs = 0;
      for (size_t a : left.token_attr) num_attrs = std::max(num_attrs, a + 1);
      for (size_t a : right.token_attr) num_attrs = std::max(num_attrs, a + 1);

      std::vector<double> cosines;
      TokenCosines(left.token_vecs, left.token_norms, right.token_vecs,
                   right.token_norms, &cosines);
      std::vector<double> best_l2r, best_r2l;
      BestMatches(cosines, left.token_vecs.size(), right.token_vecs.size(),
                  nullptr, nullptr, &best_l2r, &best_r2l);

      auto align = [num_attrs](const RecordRep& from,
                               const std::vector<double>& bests,
                               double* overall) {
        std::vector<double> mean_per_attr(num_attrs, 0.0);
        std::vector<double> max_per_attr(num_attrs, 0.0);
        std::vector<double> count(num_attrs, 0.0);
        double total = 0.0;
        for (size_t i = 0; i < bests.size(); ++i) {
          size_t a = from.token_attr[i];
          mean_per_attr[a] += bests[i];
          max_per_attr[a] = std::max(max_per_attr[a], bests[i]);
          count[a] += 1.0;
          total += bests[i];
        }
        for (size_t a = 0; a < num_attrs; ++a) {
          if (count[a] > 0.0) mean_per_attr[a] /= count[a];
        }
        *overall = bests.empty()
                       ? 0.0
                       : total / static_cast<double>(bests.size());
        return std::make_pair(mean_per_attr, max_per_attr);
      };

      double overall_l2r = 0.0;
      double overall_r2l = 0.0;
      auto [mean_l2r, max_l2r] = align(left, best_l2r, &overall_l2r);
      auto [mean_r2l, max_r2l] = align(right, best_r2l, &overall_r2l);
      for (size_t a = 0; a < num_attrs; ++a) {
        features.push_back(static_cast<float>(mean_l2r[a]));
        features.push_back(static_cast<float>(max_l2r[a]));
        features.push_back(static_cast<float>(mean_r2l[a]));
        features.push_back(static_cast<float>(max_r2l[a]));
      }
      features.push_back(static_cast<float>(overall_l2r));
      features.push_back(static_cast<float>(overall_r2l));
      break;
    }
  }
  return features;
}

std::vector<uint8_t> DlMatcher::Run(const MatchingContext& context) {
  // Every cache lives in this call's state, so reusing an instance across
  // tasks carries nothing over.
  RunState state(
      context,
      embed::ContextEncoder(
          options_.seq_dim, options_.seed,
          method_ == DlMethod::kEmTransformerR || method_ == DlMethod::kDitto
              ? 0x20BE27A5ull  // the RoBERTa-style checkpoint
              : 0xBE27ull,     // the BERT-style checkpoint
          &context.tfidf()));

  const auto& task = context.task();
  size_t num_attrs = task.left().schema().num_attributes();
  size_t dim = FeatureDim(num_attrs);

  // HierMatcher's feature width depends on the attribute count; pad to dim.
  auto pad = [dim](std::vector<float> features) {
    features.resize(dim, 0.0F);
    return features;
  };

  ml::Dataset train(dim);
  Rng augment_rng(options_.seed ^ 0xA06ULL);
  for (const auto& pair : task.train()) {
    train.Add(pad(PairFeatures(Rep(&state, true, pair.left),
                               Rep(&state, false, pair.right))),
              pair.is_match);
    if (method_ == DlMethod::kDitto &&
        augment_rng.Bernoulli(options_.ditto_augment_rate)) {
      // Augmented copy: re-encode both sides with token dropout.
      RecordRep l = BuildRep(&state, true, pair.left, &augment_rng);
      RecordRep r = BuildRep(&state, false, pair.right, &augment_rng);
      train.Add(pad(PairFeatures(l, r)), pair.is_match);
    }
  }
  ml::Dataset valid(dim);
  for (const auto& pair : task.valid()) {
    valid.Add(pad(PairFeatures(Rep(&state, true, pair.left),
                               Rep(&state, false, pair.right))),
              pair.is_match);
  }
  ml::Dataset test(dim);
  for (const auto& pair : task.test()) {
    test.Add(pad(PairFeatures(Rep(&state, true, pair.left),
                              Rep(&state, false, pair.right))),
             pair.is_match);
  }

  ml::MlpOptions mlp_options = options_.mlp;
  mlp_options.epochs = epochs_;
  mlp_options.seed = options_.seed;
  ml::Mlp mlp(mlp_options);
  mlp.Fit(train, valid);

  // Batched panel scoring through the affine kernels — bit-identical to a
  // per-row PredictScore loop (the differential tests pin it).
  std::vector<double> scores(test.size());
  mlp.PredictScoresBatch(test, scores);

  if (method_ == DlMethod::kGnem) {
    // Global step: reason jointly over all candidate pairs that share a
    // record. In Clean-Clean ER each record matches at most one record on
    // the other side, so a strong *competing* pair on the same record —
    // a labelled positive, or a higher-scoring test pair — is evidence
    // against this pair (GNEM's one-to-set interaction module).
    std::unordered_map<uint32_t, std::vector<std::pair<size_t, double>>>
        by_left, by_right;
    // Index space: test pairs carry their own index so a pair skips itself
    // during propagation; labelled pairs use a sentinel index.
    for (size_t i = 0; i < task.test().size(); ++i) {
      const auto& pair = task.test()[i];
      by_left[pair.left].emplace_back(i, scores[i]);
      by_right[pair.right].emplace_back(i, scores[i]);
    }
    for (const auto* split : {&task.train(), &task.valid()}) {
      for (const auto& pair : *split) {
        if (!pair.is_match) continue;  // non-matches carry no exclusivity
        by_left[pair.left].emplace_back(SIZE_MAX, 1.0);
        by_right[pair.right].emplace_back(SIZE_MAX, 1.0);
      }
    }

    std::vector<double> refined = scores;
    for (size_t i = 0; i < task.test().size(); ++i) {
      const auto& pair = task.test()[i];
      double strongest_competitor = 0.0;
      for (const auto* bucket : {&by_left[pair.left], &by_right[pair.right]}) {
        for (const auto& [j, anchor] : *bucket) {
          if (j == i) continue;
          strongest_competitor = std::max(strongest_competitor, anchor);
        }
      }
      // Suppress this pair in proportion to how much stronger the best
      // competitor is; pairs that dominate their neighbourhood are kept.
      if (strongest_competitor > scores[i]) {
        refined[i] = scores[i] - options_.gnem_lambda *
                                     (strongest_competitor - scores[i]);
        refined[i] = std::max(0.0, refined[i]);
      }
    }
    scores = std::move(refined);
  }

  std::vector<uint8_t> predictions(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    predictions[i] = scores[i] >= 0.5 ? 1 : 0;
  }
  return predictions;
}

}  // namespace rlbench::matchers
