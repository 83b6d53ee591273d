// Simulated deep-learning matchers (Section IV-A).
//
// Each method is a from-scratch MLP classifier over a feature pipeline that
// reproduces the method's cell in the paper's taxonomy (Table II):
//
//   DeepMatcher      static embeddings, homogeneous (per-attribute),  local
//   EMTransformer-B  dynamic embeddings (variant B), heterogeneous,   local
//   EMTransformer-R  dynamic embeddings (variant R), heterogeneous,   local
//   GNEM             dynamic embeddings, homogeneous,                 GLOBAL
//                    (score propagation over the candidate graph)
//   DITTO            dynamic embeddings + TF-IDF summarisation of long
//                    values + training-set augmentation, heterogeneous, local
//   HierMatcher      cross-attribute token alignment (hierarchical),  local
//
// "Static" embeddings are the hashed subword vectors (fastText stand-in);
// "dynamic" ones pass through the attention context mixer (BERT stand-in).
// Sequences are capped at kMaxSequenceTokens, mirroring the 512-token
// attention span the paper highlights for transformer models.
//
// All caches (token vectors, record representations, the dynamic encoder)
// belong to one Run call and are freed when it returns, so an instance
// carries no state from one task to the next.
#ifndef RLBENCH_SRC_MATCHERS_DL_SIMS_H_
#define RLBENCH_SRC_MATCHERS_DL_SIMS_H_

#include <cstdint>

#include "common/rng.h"
#include "embed/hashed_embedding.h"
#include "matchers/matcher.h"
#include "ml/mlp.h"

namespace rlbench::matchers {

enum class DlMethod {
  kDeepMatcher,
  kEmTransformerB,
  kEmTransformerR,
  kGnem,
  kDitto,
  kHierMatcher,
};

const char* DlMethodName(DlMethod method);

struct DlOptions {
  /// Per-attribute static embedding dimensionality (DeepMatcher, Hier).
  size_t attr_dim = 16;
  /// Sequence embedding dimensionality (EMTransformer, GNEM, DITTO).
  size_t seq_dim = 48;
  /// Token cap of the simulated attention span.
  size_t max_sequence_tokens = 64;
  /// Token cap per side for HierMatcher's token alignment.
  size_t max_alignment_tokens = 40;
  /// GNEM: weight of the propagated neighbourhood score.
  double gnem_lambda = 0.35;
  /// DITTO: probability of adding an augmented copy of a training pair.
  double ditto_augment_rate = 0.5;
  /// DITTO: token drop probability inside an augmented copy.
  double ditto_token_dropout = 0.15;
  ml::MlpOptions mlp;
  uint64_t seed = 29;
};

/// \brief One simulated DL matcher (method x epoch budget).
class DlMatcher : public Matcher {
 public:
  DlMatcher(DlMethod method, int epochs, DlOptions options = {});

  std::string name() const override;
  std::vector<uint8_t> Run(const MatchingContext& context) override;

 private:
  /// Cached record-level representation (per-attr vecs or sequence vec).
  struct RecordRep {
    std::vector<embed::Vec> attr_vecs;  // DeepMatcher
    embed::Vec seq_vec;                 // EMT / GNEM / DITTO (pooled)
    // Token-level vectors: contextual for the transformer family (the
    // cross-encoder attends across both sequences, so pair features include
    // token alignment), static for HierMatcher. Capped.
    std::vector<embed::Vec> token_vecs;
    std::vector<double> token_norms;    // embed::Norm of each token vector
    std::vector<double> token_idf;
    std::vector<size_t> token_attr;     // attribute of each token (Hier)
  };

  /// The caches of one Run call (defined in dl_sims.cc).
  struct RunState;

  const RecordRep& Rep(RunState* state, bool left_side,
                       uint32_t record) const;
  /// `dropout` (DITTO augmentation) drops each token with
  /// ditto_token_dropout probability before encoding; null = no dropout.
  RecordRep BuildRep(RunState* state, bool left_side, uint32_t record,
                     Rng* dropout) const;

  std::vector<float> PairFeatures(const RecordRep& left,
                                  const RecordRep& right) const;
  size_t FeatureDim(size_t num_attrs) const;

  /// Token sequence for the record under this method's input convention
  /// (summarised for DITTO, head-truncated otherwise).
  std::vector<std::string> SequenceTokens(const MatchingContext& context,
                                          bool left_side,
                                          uint32_t record) const;

  DlMethod method_;
  int epochs_;
  DlOptions options_;
  embed::HashedEmbedding static_model_;
};

}  // namespace rlbench::matchers

#endif  // RLBENCH_SRC_MATCHERS_DL_SIMS_H_
