// Template-base extension (paper section 3).
//
// "In order to increase the search space investigated during code selection,
//  the RT template base delivered by ISE is extended by further templates":
//    * for each template containing a commutative operator, complementary
//      templates with swapped arguments are added, and
//    * optional algebraic rewrite rules from an external transformation
//      library create further equivalent-shape variants.
#pragma once

#include <cstddef>

#include "rtl/rewrite.h"
#include "rtl/template.h"

namespace record::rtl {

struct ExtendOptions {
  bool commutativity = true;
  /// Rewrite library to apply; nullptr disables rewriting.
  const RewriteLibrary* rewrites = nullptr;
  /// Upper bound on variants generated from a single template (guards
  /// against exponential swap combinations in deep sum-of-product trees).
  std::size_t max_variants_per_template = 64;
  /// Rewrite passes (variants of variants); 1 matches the paper's one-shot
  /// extension.
  int rewrite_iterations = 1;
};

struct ExtendStats {
  std::size_t commutative_added = 0;
  std::size_t rewrite_added = 0;
  std::size_t variant_capped = 0;  // templates whose variants hit the cap
};

/// Extends `base` in place, then fills its write conditions
/// (TemplateBase::writers) for the extended template set.
ExtendStats extend_template_base(TemplateBase& base,
                                 const ExtendOptions& options);

}  // namespace record::rtl
