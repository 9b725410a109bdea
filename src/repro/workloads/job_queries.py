"""The Join-Order Benchmark query suite (33 families, 113 queries).

Queries the paper quotes are transcribed verbatim from JOB (Q1a from
Listing 1, Q8c from Listing 3, Q8d as described, plus Q17b and Q32b used
in Experiment 1 and the Listing-2 non-indexed join).  The remaining
variants are reconstructed per-family: the real JOB table sets and join
graphs with predicate variants drawn from the generator's vocabularies,
so every query is satisfiable over the synthetic dataset.

The variant counts per family match JOB (4+4+3+...+3 = 113 queries).
"""

import re

from repro.errors import ReproError

# ----------------------------------------------------------------------
# The suite: family number -> {variant letter: SQL}
# ----------------------------------------------------------------------
JOB_FAMILIES = {}


def _family(number, variants):
    if number in JOB_FAMILIES:
        raise ReproError(f"family {number} defined twice")
    JOB_FAMILIES[number] = variants


_family(1, {
    # Q1a is Listing 1 of the paper, verbatim JOB.
    "a": """SELECT MIN(mc.note) AS production_note,
       MIN(t.title) AS movie_title,
       MIN(t.production_year) AS movie_year
FROM company_type AS ct, info_type AS it, movie_companies AS mc,
     movie_info_idx AS mi_idx, title AS t
WHERE ct.kind = 'production companies'
  AND it.info = 'top 250 rank'
  AND mc.note NOT LIKE '%(as Metro-Goldwyn-Mayer Pictures)%'
  AND (mc.note LIKE '%(co-production)%' OR mc.note LIKE '%(presents)%')
  AND ct.id = mc.company_type_id
  AND t.id = mc.movie_id
  AND t.id = mi_idx.movie_id
  AND mc.movie_id = mi_idx.movie_id
  AND it.id = mi_idx.info_type_id""",
    "b": """SELECT MIN(mc.note) AS production_note,
       MIN(t.title) AS movie_title,
       MIN(t.production_year) AS movie_year
FROM company_type AS ct, info_type AS it, movie_companies AS mc,
     movie_info_idx AS mi_idx, title AS t
WHERE ct.kind = 'production companies'
  AND it.info = 'bottom 10 rank'
  AND t.production_year BETWEEN 2005 AND 2010
  AND ct.id = mc.company_type_id
  AND t.id = mc.movie_id
  AND t.id = mi_idx.movie_id
  AND mc.movie_id = mi_idx.movie_id
  AND it.id = mi_idx.info_type_id""",
    "c": """SELECT MIN(mc.note) AS production_note,
       MIN(t.title) AS movie_title,
       MIN(t.production_year) AS movie_year
FROM company_type AS ct, info_type AS it, movie_companies AS mc,
     movie_info_idx AS mi_idx, title AS t
WHERE ct.kind = 'production companies'
  AND it.info = 'top 250 rank'
  AND mc.note LIKE '%(co-production)%'
  AND t.production_year > 2010
  AND ct.id = mc.company_type_id
  AND t.id = mc.movie_id
  AND t.id = mi_idx.movie_id
  AND mc.movie_id = mi_idx.movie_id
  AND it.id = mi_idx.info_type_id""",
    "d": """SELECT MIN(mc.note) AS production_note,
       MIN(t.title) AS movie_title,
       MIN(t.production_year) AS movie_year
FROM company_type AS ct, info_type AS it, movie_companies AS mc,
     movie_info_idx AS mi_idx, title AS t
WHERE ct.kind = 'production companies'
  AND it.info = 'bottom 10 rank'
  AND t.production_year > 2000
  AND ct.id = mc.company_type_id
  AND t.id = mc.movie_id
  AND t.id = mi_idx.movie_id
  AND mc.movie_id = mi_idx.movie_id
  AND it.id = mi_idx.info_type_id""",
})

_family(2, {
    letter: f"""SELECT MIN(t.title) AS movie_title
FROM company_name AS cn, keyword AS k, movie_companies AS mc,
     movie_keyword AS mk, title AS t
WHERE cn.country_code = '{code}'
  AND k.keyword = 'character-name-in-title'
  AND cn.id = mc.company_id
  AND mc.movie_id = t.id
  AND t.id = mk.movie_id
  AND mk.keyword_id = k.id
  AND mc.movie_id = mk.movie_id"""
    for letter, code in
    (("a", "[de]"), ("b", "[nl]"), ("c", "[sm]"), ("d", "[us]"))
})

_family(3, {
    "a": """SELECT MIN(t.title) AS movie_title
FROM keyword AS k, movie_info AS mi, movie_keyword AS mk, title AS t
WHERE k.keyword LIKE '%sequel%'
  AND mi.info IN ('Sweden', 'Norway', 'Germany', 'Denmark', 'Japan')
  AND t.production_year > 2005
  AND t.id = mi.movie_id
  AND t.id = mk.movie_id
  AND mk.movie_id = mi.movie_id
  AND k.id = mk.keyword_id""",
    "b": """SELECT MIN(t.title) AS movie_title
FROM keyword AS k, movie_info AS mi, movie_keyword AS mk, title AS t
WHERE k.keyword LIKE '%sequel%'
  AND mi.info IN ('Bulgaria')
  AND t.production_year > 2010
  AND t.id = mi.movie_id
  AND t.id = mk.movie_id
  AND mk.movie_id = mi.movie_id
  AND k.id = mk.keyword_id""",
    "c": """SELECT MIN(t.title) AS movie_title
FROM keyword AS k, movie_info AS mi, movie_keyword AS mk, title AS t
WHERE k.keyword LIKE '%sequel%'
  AND mi.info IN ('Sweden', 'Norway', 'Germany', 'Denmark', 'USA',
                  'American')
  AND t.production_year > 1990
  AND t.id = mi.movie_id
  AND t.id = mk.movie_id
  AND mk.movie_id = mi.movie_id
  AND k.id = mk.keyword_id""",
})

_family(4, {
    letter: f"""SELECT MIN(mi_idx.info) AS rating, MIN(t.title) AS movie_title
FROM info_type AS it, keyword AS k, movie_info_idx AS mi_idx,
     movie_keyword AS mk, title AS t
WHERE it.info = 'rating'
  AND k.keyword LIKE '%sequel%'
  AND mi_idx.info > '{rating}'
  AND t.production_year > {year}
  AND t.id = mi_idx.movie_id
  AND t.id = mk.movie_id
  AND mk.movie_id = mi_idx.movie_id
  AND k.id = mk.keyword_id
  AND it.id = mi_idx.info_type_id"""
    for letter, rating, year in
    (("a", "5.0", 2005), ("b", "9.0", 2010), ("c", "2.0", 1990))
})

_family(5, {
    "a": """SELECT MIN(t.title) AS typical_european_movie
FROM company_type AS ct, info_type AS it, movie_companies AS mc,
     movie_info AS mi, title AS t
WHERE ct.kind = 'production companies'
  AND mc.note LIKE '%(theatrical)%'
  AND mc.note LIKE '%(USA)%'
  AND mi.info IN ('Sweden', 'Norway', 'Germany', 'Denmark')
  AND t.production_year > 2005
  AND t.id = mi.movie_id
  AND t.id = mc.movie_id
  AND mc.movie_id = mi.movie_id
  AND ct.id = mc.company_type_id
  AND it.id = mi.info_type_id""",
    "b": """SELECT MIN(t.title) AS american_vhs_movie
FROM company_type AS ct, info_type AS it, movie_companies AS mc,
     movie_info AS mi, title AS t
WHERE ct.kind = 'production companies'
  AND mc.note LIKE '%(VHS)%'
  AND mi.info IN ('USA', 'America', 'American')
  AND t.production_year > 2000
  AND t.id = mi.movie_id
  AND t.id = mc.movie_id
  AND mc.movie_id = mi.movie_id
  AND ct.id = mc.company_type_id
  AND it.id = mi.info_type_id""",
    "c": """SELECT MIN(t.title) AS american_movie
FROM company_type AS ct, info_type AS it, movie_companies AS mc,
     movie_info AS mi, title AS t
WHERE ct.kind = 'production companies'
  AND mc.note NOT LIKE '%(TV)%'
  AND mc.note LIKE '%(USA)%'
  AND mi.info IN ('Drama', 'Horror', 'Action', 'Sci-Fi', 'Thriller')
  AND t.production_year > 1990
  AND t.id = mi.movie_id
  AND t.id = mc.movie_id
  AND mc.movie_id = mi.movie_id
  AND ct.id = mc.company_type_id
  AND it.id = mi.info_type_id""",
})

_family(6, {
    letter: f"""SELECT MIN(k.keyword) AS movie_keyword,
       MIN(n.name) AS actor_name, MIN(t.title) AS movie_title
FROM cast_info AS ci, keyword AS k, movie_keyword AS mk, name AS n,
     title AS t
WHERE k.keyword {keyword_pred}
  AND n.name LIKE '{name_like}'
  AND t.production_year > {year}
  AND k.id = mk.keyword_id
  AND t.id = mk.movie_id
  AND t.id = ci.movie_id
  AND ci.movie_id = mk.movie_id
  AND n.id = ci.person_id"""
    for letter, keyword_pred, name_like, year in (
        ("a", "= 'marvel-cinematic-universe'", "%an%", 2010),
        ("b", "LIKE '%based-on-comic%'", "Z%", 2014),
        ("c", "= 'marvel-cinematic-universe'", "X%", 2014),
        ("d", "LIKE '%based-on-comic%'", "%an%", 1950),
        ("e", "= 'marvel-cinematic-universe'", "B%", 2000),
        ("f", "LIKE '%based-on-comic%'", "%or%", 1980),
    )
})

_family(7, {
    letter: f"""SELECT MIN(n.name) AS of_person, MIN(t.title) AS biography_movie
FROM aka_name AS an, cast_info AS ci, info_type AS it, link_type AS lt,
     movie_link AS ml, name AS n, person_info AS pi, title AS t
WHERE an.name LIKE '%a%'
  AND it.info = 'mini biography'
  AND lt.link = '{link}'
  AND n.name_pcode_cf BETWEEN 'A' AND '{hi_code}'
  AND n.gender = 'm'
  AND pi.note = '(source)'
  AND t.production_year BETWEEN {lo} AND {hi}
  AND n.id = an.person_id
  AND n.id = pi.person_id
  AND ci.person_id = n.id
  AND t.id = ci.movie_id
  AND ml.linked_movie_id = t.id
  AND lt.id = ml.link_type_id
  AND it.id = pi.info_type_id"""
    for letter, link, hi_code, lo, hi in (
        ("a", "features", "F", 1980, 1995),
        ("b", "follows", "F", 1980, 1984),
        ("c", "features", "T", 1900, 2010),
    )
})

# Q8c is Listing 3 of the paper; 8d targets 'costume designer' (§5 Exp 6).
_Q8_TEMPLATE = """SELECT MIN(an.name) AS writer_pseudo_name,
       MIN(t.title) AS movie_title
FROM aka_name AS an, cast_info AS ci, company_name AS cn,
     movie_companies AS mc, name AS n, role_type AS rt, title AS t
WHERE cn.country_code = '{code}'
  AND rt.role = '{role}'
  AND {extra}
  AND an.person_id = n.id
  AND n.id = ci.person_id
  AND ci.movie_id = t.id
  AND t.id = mc.movie_id
  AND mc.company_id = cn.id
  AND ci.role_id = rt.id
  AND an.person_id = ci.person_id
  AND ci.movie_id = mc.movie_id"""

_family(8, {
    "a": _Q8_TEMPLATE.format(code="[us]", role="actress",
                             extra="ci.note = '(voice)'"),
    "b": _Q8_TEMPLATE.format(code="[jp]", role="actress",
                             extra="ci.note = '(voice)' "
                                   "AND t.production_year BETWEEN 2006 "
                                   "AND 2007"),
    "c": _Q8_TEMPLATE.format(code="[us]", role="writer",
                             extra="an.name IS NOT NULL"),
    "d": _Q8_TEMPLATE.format(code="[us]", role="costume designer",
                             extra="an.name IS NOT NULL"),
})

_family(9, {
    letter: f"""SELECT MIN(an.name) AS alternative_name,
       MIN(chn.name) AS character_name, MIN(t.title) AS movie
FROM aka_name AS an, char_name AS chn, cast_info AS ci,
     company_name AS cn, movie_companies AS mc, name AS n,
     role_type AS rt, title AS t
WHERE ci.note IN ('(voice)', '(voice: Japanese version)',
                  '(voice) (uncredited)')
  AND cn.country_code = '[us]'
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND t.production_year BETWEEN {lo} AND {hi}
  AND {extra}
  AND ci.movie_id = t.id
  AND t.id = mc.movie_id
  AND ci.movie_id = mc.movie_id
  AND mc.company_id = cn.id
  AND ci.role_id = rt.id
  AND n.id = ci.person_id
  AND chn.id = ci.person_role_id
  AND an.person_id = n.id
  AND ci.person_id = an.person_id"""
    for letter, lo, hi, extra in (
        ("a", 2005, 2015, "n.name LIKE '%an%'"),
        ("b", 2007, 2010, "n.name LIKE 'Z%'"),
        ("c", 1990, 2018, "n.name LIKE '%an%'"),
        ("d", 1900, 2020, "n.name IS NOT NULL"),
    )
})

_family(10, {
    "a": """SELECT MIN(chn.name) AS uncredited_voiced_character,
       MIN(t.title) AS russian_movie
FROM char_name AS chn, cast_info AS ci, company_name AS cn,
     company_type AS ct, movie_companies AS mc, role_type AS rt,
     title AS t
WHERE ci.note LIKE '%(voice)%'
  AND ci.note LIKE '%(uncredited)%'
  AND cn.country_code = '[ru]'
  AND rt.role = 'actor'
  AND t.production_year > 2005
  AND t.id = mc.movie_id
  AND t.id = ci.movie_id
  AND ci.movie_id = mc.movie_id
  AND chn.id = ci.person_role_id
  AND rt.id = ci.role_id
  AND cn.id = mc.company_id
  AND ct.id = mc.company_type_id""",
    "b": """SELECT MIN(chn.name) AS character_name,
       MIN(t.title) AS russian_mov_with_actor_producer
FROM char_name AS chn, cast_info AS ci, company_name AS cn,
     company_type AS ct, movie_companies AS mc, role_type AS rt,
     title AS t
WHERE ci.note LIKE '%(producer)%'
  AND cn.country_code = '[ru]'
  AND rt.role = 'actor'
  AND t.production_year > 2010
  AND t.id = mc.movie_id
  AND t.id = ci.movie_id
  AND ci.movie_id = mc.movie_id
  AND chn.id = ci.person_role_id
  AND rt.id = ci.role_id
  AND cn.id = mc.company_id
  AND ct.id = mc.company_type_id""",
    "c": """SELECT MIN(chn.name) AS character_name,
       MIN(t.title) AS movie_with_american_producer
FROM char_name AS chn, cast_info AS ci, company_name AS cn,
     company_type AS ct, movie_companies AS mc, role_type AS rt,
     title AS t
WHERE ci.note LIKE '%(producer)%'
  AND cn.country_code = '[us]'
  AND t.production_year > 1990
  AND t.id = mc.movie_id
  AND t.id = ci.movie_id
  AND ci.movie_id = mc.movie_id
  AND chn.id = ci.person_role_id
  AND rt.id = ci.role_id
  AND cn.id = mc.company_id
  AND ct.id = mc.company_type_id""",
})

_family(11, {
    letter: f"""SELECT MIN(cn.name) AS from_company,
       MIN(lt.link) AS movie_link_type, MIN(t.title) AS sequel_movie
FROM company_name AS cn, company_type AS ct, keyword AS k,
     link_type AS lt, movie_companies AS mc, movie_keyword AS mk,
     movie_link AS ml, title AS t
WHERE cn.country_code {cn_pred}
  AND ct.kind = 'production companies'
  AND k.keyword = '{keyword}'
  AND lt.link LIKE '%follow%'
  AND mc.note IS NULL
  AND t.production_year BETWEEN {lo} AND {hi}
  AND lt.id = ml.link_type_id
  AND ml.movie_id = t.id
  AND t.id = mk.movie_id
  AND mk.keyword_id = k.id
  AND t.id = mc.movie_id
  AND mc.company_type_id = ct.id
  AND mc.company_id = cn.id
  AND ml.movie_id = mk.movie_id
  AND mk.movie_id = mc.movie_id"""
    for letter, cn_pred, keyword, lo, hi in (
        ("a", "!= '[pl]'", "sequel", 1950, 2000),
        ("b", "!= '[pl]'", "sequel", 1990, 1995),
        ("c", "!= '[pl]'", "sequel", 1980, 2010),
        ("d", "= '[us]'", "second-part", 1950, 2020),
    )
})

_family(12, {
    letter: f"""SELECT MIN(cn.name) AS movie_company,
       MIN(mi_idx.info) AS rating, MIN(t.title) AS drama_horror_movie
FROM company_name AS cn, company_type AS ct, info_type AS it1,
     info_type AS it2, movie_companies AS mc, movie_info AS mi,
     movie_info_idx AS mi_idx, title AS t
WHERE cn.country_code = '[us]'
  AND ct.kind = 'production companies'
  AND it1.info = 'genres'
  AND it2.info = 'rating'
  AND mi.info IN ({genres})
  AND mi_idx.info > '{rating}'
  AND t.production_year BETWEEN {lo} AND {hi}
  AND t.id = mi.movie_id
  AND t.id = mi_idx.movie_id
  AND mi.info_type_id = it1.id
  AND mi_idx.info_type_id = it2.id
  AND t.id = mc.movie_id
  AND ct.id = mc.company_type_id
  AND cn.id = mc.company_id
  AND mc.movie_id = mi.movie_id
  AND mc.movie_id = mi_idx.movie_id
  AND mi.movie_id = mi_idx.movie_id"""
    for letter, genres, rating, lo, hi in (
        ("a", "'Drama', 'Horror'", "8.0", 2005, 2008),
        ("b", "'Drama', 'Horror', 'Western', 'Family'", "7.0", 2000, 2010),
        ("c", "'Drama', 'Horror', 'Action', 'Sci-Fi', 'Thriller'", "4.0",
         1990, 2018),
    )
})

_family(13, {
    letter: f"""SELECT MIN(mi.info) AS release_date,
       MIN(mi_idx.info) AS rating, MIN(t.title) AS movie
FROM company_name AS cn, company_type AS ct, info_type AS it1,
     info_type AS it2, kind_type AS kt, movie_companies AS mc,
     movie_info AS mi, movie_info_idx AS mi_idx, title AS t
WHERE cn.country_code = '{code}'
  AND ct.kind = 'production companies'
  AND it1.info = 'rating'
  AND it2.info = 'release dates'
  AND kt.kind = '{kind}'
  AND mi.movie_id = t.id
  AND it2.id = mi.info_type_id
  AND kt.id = t.kind_id
  AND mc.movie_id = t.id
  AND cn.id = mc.company_id
  AND ct.id = mc.company_type_id
  AND mi_idx.movie_id = t.id
  AND it1.id = mi_idx.info_type_id
  AND mi.movie_id = mi_idx.movie_id
  AND mi.movie_id = mc.movie_id
  AND mi_idx.movie_id = mc.movie_id"""
    for letter, code, kind in (
        ("a", "[de]", "movie"),
        ("b", "[us]", "movie"),
        ("c", "[us]", "tv movie"),
        ("d", "[gb]", "episode"),
    )
})

_family(14, {
    letter: f"""SELECT MIN(mi_idx.info) AS rating,
       MIN(t.title) AS northern_dark_movie
FROM info_type AS it1, info_type AS it2, keyword AS k,
     kind_type AS kt, movie_info AS mi, movie_info_idx AS mi_idx,
     movie_keyword AS mk, title AS t
WHERE it1.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'violence')
  AND kt.kind = 'movie'
  AND mi.info IN ('Sweden', 'Norway', 'Germany', 'Denmark', 'USA')
  AND mi_idx.info < '{rating}'
  AND t.production_year > {year}
  AND kt.id = t.kind_id
  AND t.id = mi.movie_id
  AND t.id = mk.movie_id
  AND t.id = mi_idx.movie_id
  AND mk.movie_id = mi.movie_id
  AND mk.movie_id = mi_idx.movie_id
  AND mi.movie_id = mi_idx.movie_id
  AND k.id = mk.keyword_id
  AND it1.id = mi.info_type_id
  AND it2.id = mi_idx.info_type_id"""
    for letter, rating, year in
    (("a", "8.5", 2005), ("b", "9.5", 2009), ("c", "9.9", 1990))
})

_family(15, {
    letter: f"""SELECT MIN(mi.info) AS release_date,
       MIN(t.title) AS internet_movie
FROM aka_title AS at, company_name AS cn, company_type AS ct,
     info_type AS it1, movie_companies AS mc, movie_info AS mi,
     title AS t
WHERE cn.country_code = '[us]'
  AND it1.info = 'release dates'
  AND mc.note LIKE '%(USA)%'
  AND mi.info LIKE 'USA:%'
  AND t.production_year > {year}
  AND {extra}
  AND t.id = at.movie_id
  AND t.id = mi.movie_id
  AND t.id = mc.movie_id
  AND mc.movie_id = mi.movie_id
  AND mc.movie_id = at.movie_id
  AND mi.movie_id = at.movie_id
  AND cn.id = mc.company_id
  AND ct.id = mc.company_type_id
  AND it1.id = mi.info_type_id"""
    for letter, year, extra in (
        ("a", 2000, "mc.note LIKE '%(theatrical)%'"),
        ("b", 1990, "mc.note LIKE '%(VHS)%'"),
        ("c", 1980, "mc.note LIKE '%(theatrical)%'"),
        ("d", 1950, "mi.note IS NULL"),
    )
})

_family(16, {
    letter: f"""SELECT MIN(an.name) AS cool_actor_pseudonym,
       MIN(t.title) AS series_named_after_char
FROM aka_name AS an, cast_info AS ci, company_name AS cn,
     keyword AS k, movie_companies AS mc, movie_keyword AS mk,
     name AS n, title AS t
WHERE cn.country_code = '[us]'
  AND k.keyword = 'character-name-in-title'
  AND t.episode_nr BETWEEN {lo} AND {hi}
  AND an.person_id = n.id
  AND n.id = ci.person_id
  AND ci.movie_id = t.id
  AND t.id = mk.movie_id
  AND mk.keyword_id = k.id
  AND t.id = mc.movie_id
  AND mc.company_id = cn.id
  AND an.person_id = ci.person_id
  AND ci.movie_id = mc.movie_id
  AND ci.movie_id = mk.movie_id
  AND mc.movie_id = mk.movie_id"""
    for letter, lo, hi in
    (("a", 50, 100), ("b", 1, 400), ("c", 1, 100), ("d", 5, 300))
})

# Q17b is used in Experiment 1; the family varies n.name predicates.
_family(17, {
    letter: f"""SELECT MIN(n.name) AS member_in_charnamed_movie
FROM cast_info AS ci, company_name AS cn, keyword AS k,
     movie_companies AS mc, movie_keyword AS mk, name AS n, title AS t
WHERE cn.country_code = '[us]'
  AND k.keyword = 'character-name-in-title'
  AND n.name LIKE '{pattern}'
  AND n.id = ci.person_id
  AND ci.movie_id = t.id
  AND t.id = mk.movie_id
  AND mk.keyword_id = k.id
  AND t.id = mc.movie_id
  AND mc.company_id = cn.id
  AND ci.movie_id = mc.movie_id
  AND ci.movie_id = mk.movie_id
  AND mc.movie_id = mk.movie_id"""
    for letter, pattern in (
        ("a", "B%"), ("b", "Z%"), ("c", "X%"), ("d", "%Bel%"),
        ("e", "%an%"), ("f", "%a%"),
    )
})

_family(18, {
    letter: f"""SELECT MIN(mi.info) AS movie_budget,
       MIN(mi_idx.info) AS movie_votes, MIN(t.title) AS movie_title
FROM cast_info AS ci, info_type AS it1, info_type AS it2,
     movie_info AS mi, movie_info_idx AS mi_idx, name AS n, title AS t
WHERE ci.note IN ('(producer)', '(executive producer)')
  AND it1.info = 'budget'
  AND it2.info = 'votes'
  AND n.gender = '{gender}'
  AND n.name LIKE '{pattern}'
  AND t.id = mi.movie_id
  AND t.id = mi_idx.movie_id
  AND t.id = ci.movie_id
  AND ci.movie_id = mi.movie_id
  AND ci.movie_id = mi_idx.movie_id
  AND mi.movie_id = mi_idx.movie_id
  AND n.id = ci.person_id
  AND it1.id = mi.info_type_id
  AND it2.id = mi_idx.info_type_id"""
    for letter, gender, pattern in
    (("a", "m", "%Tor%"), ("b", "m", "B%"), ("c", "f", "%an%"))
})

_family(19, {
    letter: f"""SELECT MIN(n.name) AS voicing_actress,
       MIN(t.title) AS voiced_movie
FROM aka_name AS an, char_name AS chn, cast_info AS ci,
     company_name AS cn, info_type AS it, movie_companies AS mc,
     movie_info AS mi, name AS n, role_type AS rt, title AS t
WHERE ci.note IN ('(voice)', '(voice: Japanese version)',
                  '(voice) (uncredited)')
  AND cn.country_code = '[us]'
  AND it.info = 'release dates'
  AND mi.info LIKE 'USA:%'
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND t.production_year BETWEEN {lo} AND {hi}
  AND {extra}
  AND t.id = mi.movie_id
  AND t.id = mc.movie_id
  AND t.id = ci.movie_id
  AND mc.movie_id = ci.movie_id
  AND mc.movie_id = mi.movie_id
  AND mi.movie_id = ci.movie_id
  AND cn.id = mc.company_id
  AND it.id = mi.info_type_id
  AND n.id = ci.person_id
  AND rt.id = ci.role_id
  AND n.id = an.person_id
  AND ci.person_id = an.person_id
  AND chn.id = ci.person_role_id"""
    for letter, lo, hi, extra in (
        ("a", 2005, 2009, "n.name LIKE '%An%'"),
        ("b", 2007, 2008, "n.name LIKE 'Z%'"),
        ("c", 1990, 2018, "n.name LIKE '%An%'"),
        ("d", 1900, 2020, "n.name IS NOT NULL"),
    )
})

_family(20, {
    letter: f"""SELECT MIN(t.title) AS complete_downey_ironman_movie
FROM comp_cast_type AS cct1, comp_cast_type AS cct2,
     char_name AS chn, cast_info AS ci, complete_cast AS cc,
     keyword AS k, kind_type AS kt, movie_keyword AS mk,
     name AS n, title AS t
WHERE cct1.kind = 'cast'
  AND cct2.kind LIKE '%complete%'
  AND chn.name LIKE '{chn_pattern}'
  AND k.keyword IN ('superhero', 'marvel-cinematic-universe',
                    'based-on-comic', 'fight')
  AND kt.kind = 'movie'
  AND t.production_year > {year}
  AND kt.id = t.kind_id
  AND t.id = mk.movie_id
  AND t.id = ci.movie_id
  AND t.id = cc.movie_id
  AND mk.movie_id = ci.movie_id
  AND mk.movie_id = cc.movie_id
  AND ci.movie_id = cc.movie_id
  AND chn.id = ci.person_role_id
  AND n.id = ci.person_id
  AND k.id = mk.keyword_id
  AND cct1.id = cc.subject_id
  AND cct2.id = cc.status_id"""
    for letter, chn_pattern, year in
    (("a", "%man%", 1950), ("b", "%an%", 2000), ("c", "X%", 1980))
})

_family(21, {
    letter: f"""SELECT MIN(cn.name) AS company_name,
       MIN(lt.link) AS link_type, MIN(t.title) AS western_follow_up
FROM company_name AS cn, company_type AS ct, keyword AS k,
     link_type AS lt, movie_companies AS mc, movie_info AS mi,
     movie_keyword AS mk, movie_link AS ml, title AS t
WHERE cn.country_code != '[pl]'
  AND ct.kind = 'production companies'
  AND k.keyword = '{keyword}'
  AND lt.link LIKE '%follow%'
  AND mc.note IS NULL
  AND mi.info IN ({infos})
  AND t.production_year BETWEEN {lo} AND {hi}
  AND lt.id = ml.link_type_id
  AND ml.movie_id = t.id
  AND t.id = mk.movie_id
  AND mk.keyword_id = k.id
  AND t.id = mc.movie_id
  AND mc.company_type_id = ct.id
  AND mc.company_id = cn.id
  AND mi.movie_id = t.id
  AND ml.movie_id = mk.movie_id
  AND ml.movie_id = mc.movie_id
  AND mk.movie_id = mc.movie_id
  AND ml.movie_id = mi.movie_id
  AND mk.movie_id = mi.movie_id
  AND mc.movie_id = mi.movie_id"""
    for letter, keyword, infos, lo, hi in (
        ("a", "sequel", "'Sweden', 'Norway', 'Germany', 'Denmark'",
         1950, 2000),
        ("b", "sequel", "'Germany', 'Swedish', 'German'", 2000, 2010),
        ("c", "second-part", "'Sweden', 'Norway', 'Germany', 'Denmark', "
         "'USA', 'American'", 1950, 2010),
    )
})

_family(22, {
    letter: f"""SELECT MIN(cn.name) AS movie_company,
       MIN(mi_idx.info) AS rating, MIN(t.title) AS western_violent_movie
FROM company_name AS cn, company_type AS ct, info_type AS it1,
     info_type AS it2, keyword AS k, kind_type AS kt,
     movie_companies AS mc, movie_info AS mi, movie_info_idx AS mi_idx,
     movie_keyword AS mk, title AS t
WHERE cn.country_code != '[us]'
  AND it1.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'violence')
  AND kt.kind IN ('movie', 'episode')
  AND mc.note NOT LIKE '%(USA)%'
  AND mi.info IN ('Germany', 'Sweden', 'Norway', 'Denmark', 'Japan')
  AND mi_idx.info < '{rating}'
  AND t.production_year > {year}
  AND kt.id = t.kind_id
  AND t.id = mi.movie_id
  AND t.id = mk.movie_id
  AND t.id = mi_idx.movie_id
  AND t.id = mc.movie_id
  AND mk.movie_id = mi.movie_id
  AND mk.movie_id = mi_idx.movie_id
  AND mk.movie_id = mc.movie_id
  AND mi.movie_id = mi_idx.movie_id
  AND mi.movie_id = mc.movie_id
  AND mc.movie_id = mi_idx.movie_id
  AND k.id = mk.keyword_id
  AND it1.id = mi.info_type_id
  AND it2.id = mi_idx.info_type_id
  AND ct.id = mc.company_type_id
  AND cn.id = mc.company_id"""
    for letter, rating, year in (
        ("a", "7.0", 2008), ("b", "7.0", 2009), ("c", "8.5", 2005),
        ("d", "9.5", 1990),
    )
})

_family(23, {
    letter: f"""SELECT MIN(kt.kind) AS movie_kind, MIN(t.title) AS complete_us_movie
FROM complete_cast AS cc, comp_cast_type AS cct1, company_name AS cn,
     company_type AS ct, info_type AS it1, kind_type AS kt,
     movie_companies AS mc, movie_info AS mi, title AS t
WHERE cct1.kind = 'complete+verified'
  AND cn.country_code = '[us]'
  AND it1.info = 'release dates'
  AND kt.kind IN ({kinds})
  AND mi.info LIKE 'USA:%'
  AND t.production_year > {year}
  AND kt.id = t.kind_id
  AND t.id = mi.movie_id
  AND t.id = mc.movie_id
  AND t.id = cc.movie_id
  AND mc.movie_id = mi.movie_id
  AND mc.movie_id = cc.movie_id
  AND mi.movie_id = cc.movie_id
  AND ct.id = mc.company_type_id
  AND cn.id = mc.company_id
  AND it1.id = mi.info_type_id
  AND cct1.id = cc.status_id"""
    for letter, kinds, year in (
        ("a", "'movie'", 2000),
        ("b", "'movie', 'tv movie', 'video movie'", 2005),
        ("c", "'movie', 'tv movie', 'video movie', 'episode'", 1990),
    )
})

_family(24, {
    letter: f"""SELECT MIN(chn.name) AS voiced_char_name,
       MIN(n.name) AS voicing_actress_name,
       MIN(t.title) AS voiced_action_movie
FROM aka_name AS an, char_name AS chn, cast_info AS ci,
     info_type AS it, keyword AS k, movie_info AS mi,
     movie_keyword AS mk, name AS n, role_type AS rt, title AS t
WHERE ci.note IN ('(voice)', '(voice: Japanese version)',
                  '(voice) (uncredited)')
  AND it.info = 'release dates'
  AND k.keyword IN ({keywords})
  AND mi.info LIKE 'USA:%'
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND t.production_year > {year}
  AND t.id = mi.movie_id
  AND t.id = mk.movie_id
  AND t.id = ci.movie_id
  AND mk.movie_id = ci.movie_id
  AND mk.movie_id = mi.movie_id
  AND mi.movie_id = ci.movie_id
  AND k.id = mk.keyword_id
  AND it.id = mi.info_type_id
  AND n.id = ci.person_id
  AND rt.id = ci.role_id
  AND n.id = an.person_id
  AND ci.person_id = an.person_id
  AND chn.id = ci.person_role_id"""
    for letter, keywords, year in (
        ("a", "'hero', 'martial-arts', 'fight', 'violence'", 2010),
        ("b", "'hero', 'martial-arts', 'fight', 'violence', 'blood'",
         2000),
    )
})

_family(25, {
    letter: f"""SELECT MIN(mi.info) AS movie_budget,
       MIN(mi_idx.info) AS movie_votes, MIN(n.name) AS male_writer,
       MIN(t.title) AS violent_movie_title
FROM cast_info AS ci, info_type AS it1, info_type AS it2,
     keyword AS k, movie_info AS mi, movie_info_idx AS mi_idx,
     movie_keyword AS mk, name AS n, title AS t
WHERE ci.note IN ('(writer)', '(head writer)', '(written by)',
                  '(story)')
  AND it1.info = 'genres'
  AND it2.info = 'votes'
  AND k.keyword IN ({keywords})
  AND mi.info IN ({genres})
  AND n.gender = 'm'
  AND t.id = mi.movie_id
  AND t.id = mi_idx.movie_id
  AND t.id = ci.movie_id
  AND t.id = mk.movie_id
  AND ci.movie_id = mi.movie_id
  AND ci.movie_id = mi_idx.movie_id
  AND ci.movie_id = mk.movie_id
  AND mi.movie_id = mi_idx.movie_id
  AND mi.movie_id = mk.movie_id
  AND mi_idx.movie_id = mk.movie_id
  AND n.id = ci.person_id
  AND it1.id = mi.info_type_id
  AND it2.id = mi_idx.info_type_id
  AND k.id = mk.keyword_id"""
    for letter, keywords, genres in (
        ("a", "'murder', 'blood', 'gore', 'death'", "'Horror'"),
        ("b", "'murder', 'blood', 'violence'", "'Horror', 'Thriller'"),
        ("c", "'murder', 'violence', 'blood', 'fight'",
         "'Horror', 'Action', 'Sci-Fi', 'Thriller', 'Crime', 'War'"),
    )
})

_family(26, {
    letter: f"""SELECT MIN(chn.name) AS character_name,
       MIN(mi_idx.info) AS rating, MIN(t.title) AS complete_hero_movie
FROM complete_cast AS cc, comp_cast_type AS cct1, char_name AS chn,
     cast_info AS ci, info_type AS it2, keyword AS k,
     kind_type AS kt, movie_info_idx AS mi_idx, movie_keyword AS mk,
     name AS n, title AS t
WHERE cct1.kind = 'cast'
  AND chn.name IS NOT NULL
  AND it2.info = 'rating'
  AND k.keyword IN ('superhero', 'marvel-cinematic-universe',
                    'based-on-comic', 'fight')
  AND kt.kind = 'movie'
  AND mi_idx.info > '{rating}'
  AND t.production_year > {year}
  AND kt.id = t.kind_id
  AND t.id = mk.movie_id
  AND t.id = ci.movie_id
  AND t.id = cc.movie_id
  AND t.id = mi_idx.movie_id
  AND mk.movie_id = ci.movie_id
  AND mk.movie_id = cc.movie_id
  AND mk.movie_id = mi_idx.movie_id
  AND ci.movie_id = cc.movie_id
  AND ci.movie_id = mi_idx.movie_id
  AND cc.movie_id = mi_idx.movie_id
  AND chn.id = ci.person_role_id
  AND n.id = ci.person_id
  AND k.id = mk.keyword_id
  AND cct1.id = cc.subject_id
  AND it2.id = mi_idx.info_type_id"""
    for letter, rating, year in
    (("a", "7.0", 2000), ("b", "8.0", 2005), ("c", "6.0", 1980))
})

_family(27, {
    letter: f"""SELECT MIN(cn.name) AS producing_company,
       MIN(lt.link) AS link_type, MIN(t.title) AS complete_western_sequel
FROM complete_cast AS cc, comp_cast_type AS cct1,
     comp_cast_type AS cct2, company_name AS cn, company_type AS ct,
     keyword AS k, link_type AS lt, movie_companies AS mc,
     movie_info AS mi, movie_keyword AS mk, movie_link AS ml, title AS t
WHERE cct1.kind IN ('cast', 'crew')
  AND cct2.kind = 'complete'
  AND cn.country_code != '[pl]'
  AND ct.kind = 'production companies'
  AND k.keyword = 'sequel'
  AND lt.link LIKE '%follow%'
  AND mc.note IS NULL
  AND mi.info IN ({infos})
  AND t.production_year BETWEEN {lo} AND {hi}
  AND lt.id = ml.link_type_id
  AND ml.movie_id = t.id
  AND t.id = mk.movie_id
  AND mk.keyword_id = k.id
  AND t.id = mc.movie_id
  AND mc.company_type_id = ct.id
  AND mc.company_id = cn.id
  AND mi.movie_id = t.id
  AND t.id = cc.movie_id
  AND cct1.id = cc.subject_id
  AND cct2.id = cc.status_id
  AND ml.movie_id = mk.movie_id
  AND ml.movie_id = mc.movie_id
  AND mk.movie_id = mc.movie_id
  AND ml.movie_id = mi.movie_id
  AND ml.movie_id = cc.movie_id"""
    for letter, infos, lo, hi in (
        ("a", "'Sweden', 'Germany', 'Swedish', 'German'", 1950, 2000),
        ("b", "'Sweden', 'Germany', 'Swedish', 'German'", 1950, 2010),
        ("c", "'Sweden', 'Norway', 'Germany', 'Denmark', 'USA', "
         "'American'", 1950, 2010),
    )
})

_family(28, {
    letter: f"""SELECT MIN(cn.name) AS movie_company,
       MIN(mi_idx.info) AS rating, MIN(t.title) AS complete_euro_dark_movie
FROM complete_cast AS cc, comp_cast_type AS cct1,
     comp_cast_type AS cct2, company_name AS cn, company_type AS ct,
     info_type AS it1, info_type AS it2, keyword AS k,
     kind_type AS kt, movie_companies AS mc, movie_info AS mi,
     movie_info_idx AS mi_idx, movie_keyword AS mk, title AS t
WHERE cct1.kind = 'crew'
  AND cct2.kind != 'complete+verified'
  AND cn.country_code != '[us]'
  AND it1.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'violence')
  AND kt.kind IN ('movie', 'episode')
  AND mc.note NOT LIKE '%(USA)%'
  AND mi.info IN ('Sweden', 'Germany', 'Denmark', 'Japan')
  AND mi_idx.info < '{rating}'
  AND t.production_year > {year}
  AND kt.id = t.kind_id
  AND t.id = mi.movie_id
  AND t.id = mk.movie_id
  AND t.id = mi_idx.movie_id
  AND t.id = mc.movie_id
  AND t.id = cc.movie_id
  AND mk.movie_id = mi.movie_id
  AND mk.movie_id = mi_idx.movie_id
  AND mk.movie_id = mc.movie_id
  AND mi.movie_id = mi_idx.movie_id
  AND mi.movie_id = mc.movie_id
  AND mc.movie_id = mi_idx.movie_id
  AND k.id = mk.keyword_id
  AND it1.id = mi.info_type_id
  AND it2.id = mi_idx.info_type_id
  AND ct.id = mc.company_type_id
  AND cn.id = mc.company_id
  AND cct1.id = cc.subject_id
  AND cct2.id = cc.status_id"""
    for letter, rating, year in
    (("a", "8.5", 2000), ("b", "9.0", 2005), ("c", "9.5", 1990))
})

_family(29, {
    letter: f"""SELECT MIN(chn.name) AS voiced_char,
       MIN(n.name) AS voicing_actress, MIN(t.title) AS voiced_animation
FROM aka_name AS an, complete_cast AS cc, comp_cast_type AS cct1,
     comp_cast_type AS cct2, char_name AS chn, cast_info AS ci,
     company_name AS cn, info_type AS it, info_type AS it3,
     keyword AS k, movie_companies AS mc, movie_info AS mi,
     movie_keyword AS mk, name AS n, person_info AS pi,
     role_type AS rt, title AS t
WHERE cct1.kind = 'cast'
  AND cct2.kind = 'complete+verified'
  AND ci.note = '(voice)'
  AND cn.country_code = '[us]'
  AND it.info = 'release dates'
  AND it3.info = 'trivia'
  AND k.keyword = '{keyword}'
  AND mi.info LIKE 'USA:%'
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND t.production_year BETWEEN {lo} AND {hi}
  AND t.id = mi.movie_id
  AND t.id = mc.movie_id
  AND t.id = ci.movie_id
  AND t.id = mk.movie_id
  AND t.id = cc.movie_id
  AND mc.movie_id = ci.movie_id
  AND mc.movie_id = mi.movie_id
  AND mc.movie_id = mk.movie_id
  AND mc.movie_id = cc.movie_id
  AND mi.movie_id = ci.movie_id
  AND mi.movie_id = mk.movie_id
  AND mi.movie_id = cc.movie_id
  AND ci.movie_id = mk.movie_id
  AND ci.movie_id = cc.movie_id
  AND mk.movie_id = cc.movie_id
  AND cn.id = mc.company_id
  AND it.id = mi.info_type_id
  AND n.id = ci.person_id
  AND rt.id = ci.role_id
  AND n.id = an.person_id
  AND ci.person_id = an.person_id
  AND chn.id = ci.person_role_id
  AND n.id = pi.person_id
  AND ci.person_id = pi.person_id
  AND it3.id = pi.info_type_id
  AND k.id = mk.keyword_id
  AND cct1.id = cc.subject_id
  AND cct2.id = cc.status_id"""
    for letter, keyword, lo, hi in (
        ("a", "superhero", 2000, 2010),
        ("b", "superhero", 2007, 2010),
        ("c", "fight", 1950, 2018),
    )
})

_family(30, {
    letter: f"""SELECT MIN(mi.info) AS movie_budget,
       MIN(mi_idx.info) AS movie_votes, MIN(n.name) AS writer,
       MIN(t.title) AS complete_violent_movie
FROM complete_cast AS cc, comp_cast_type AS cct1,
     comp_cast_type AS cct2, cast_info AS ci, info_type AS it1,
     info_type AS it2, keyword AS k, movie_info AS mi,
     movie_info_idx AS mi_idx, movie_keyword AS mk, name AS n,
     title AS t
WHERE cct1.kind IN ('cast', 'crew')
  AND cct2.kind = 'complete+verified'
  AND ci.note IN ('(writer)', '(head writer)', '(written by)',
                  '(story)')
  AND it1.info = 'genres'
  AND it2.info = 'votes'
  AND k.keyword IN ('murder', 'violence', 'blood')
  AND mi.info IN ({genres})
  AND n.gender = 'm'
  AND t.production_year > {year}
  AND t.id = mi.movie_id
  AND t.id = mi_idx.movie_id
  AND t.id = ci.movie_id
  AND t.id = mk.movie_id
  AND t.id = cc.movie_id
  AND ci.movie_id = mi.movie_id
  AND ci.movie_id = mi_idx.movie_id
  AND ci.movie_id = mk.movie_id
  AND ci.movie_id = cc.movie_id
  AND mi.movie_id = mi_idx.movie_id
  AND mi.movie_id = mk.movie_id
  AND mi.movie_id = cc.movie_id
  AND mi_idx.movie_id = mk.movie_id
  AND mi_idx.movie_id = cc.movie_id
  AND mk.movie_id = cc.movie_id
  AND n.id = ci.person_id
  AND it1.id = mi.info_type_id
  AND it2.id = mi_idx.info_type_id
  AND k.id = mk.keyword_id
  AND cct1.id = cc.subject_id
  AND cct2.id = cc.status_id"""
    for letter, genres, year in (
        ("a", "'Horror', 'Thriller'", 2000),
        ("b", "'Horror'", 2005),
        ("c", "'Horror', 'Action', 'Sci-Fi', 'Thriller', 'Crime', 'War'",
         1950),
    )
})

_family(31, {
    letter: f"""SELECT MIN(mi.info) AS movie_budget,
       MIN(mi_idx.info) AS movie_votes, MIN(n.name) AS writer,
       MIN(t.title) AS violent_liongate_movie
FROM cast_info AS ci, company_name AS cn, info_type AS it1,
     info_type AS it2, keyword AS k, movie_companies AS mc,
     movie_info AS mi, movie_info_idx AS mi_idx, movie_keyword AS mk,
     name AS n, title AS t
WHERE ci.note IN ('(writer)', '(head writer)', '(written by)',
                  '(story)')
  AND cn.name LIKE '%Film%'
  AND it1.info = 'genres'
  AND it2.info = 'votes'
  AND k.keyword IN ('murder', 'violence', 'blood')
  AND mi.info IN ({genres})
  AND n.gender = '{gender}'
  AND t.id = mi.movie_id
  AND t.id = mi_idx.movie_id
  AND t.id = ci.movie_id
  AND t.id = mk.movie_id
  AND t.id = mc.movie_id
  AND ci.movie_id = mi.movie_id
  AND ci.movie_id = mi_idx.movie_id
  AND ci.movie_id = mk.movie_id
  AND ci.movie_id = mc.movie_id
  AND mi.movie_id = mi_idx.movie_id
  AND mi.movie_id = mk.movie_id
  AND mi.movie_id = mc.movie_id
  AND mi_idx.movie_id = mk.movie_id
  AND mi_idx.movie_id = mc.movie_id
  AND mk.movie_id = mc.movie_id
  AND n.id = ci.person_id
  AND it1.id = mi.info_type_id
  AND it2.id = mi_idx.info_type_id
  AND k.id = mk.keyword_id
  AND cn.id = mc.company_id"""
    for letter, genres, gender in (
        ("a", "'Horror', 'Thriller'", "m"),
        ("b", "'Horror'", "m"),
        ("c", "'Horror', 'Action', 'Sci-Fi', 'Thriller', 'Crime', 'War'",
         "f"),
    )
})

# Q32b is used in Experiment 1.
_family(32, {
    letter: f"""SELECT MIN(lt.link) AS link_type,
       MIN(t1.title) AS first_movie, MIN(t2.title) AS second_movie
FROM keyword AS k, link_type AS lt, movie_keyword AS mk,
     movie_link AS ml, title AS t1, title AS t2
WHERE k.keyword = '{keyword}'
  AND mk.keyword_id = k.id
  AND t1.id = mk.movie_id
  AND ml.movie_id = t1.id
  AND ml.linked_movie_id = t2.id
  AND lt.id = ml.link_type_id
  AND mk.movie_id = t1.id"""
    for letter, keyword in
    (("a", "10,000-mile-club"), ("b", "character-name-in-title"))
})

_family(33, {
    letter: f"""SELECT MIN(cn1.name) AS first_company,
       MIN(cn2.name) AS second_company,
       MIN(mi_idx1.info) AS first_rating,
       MIN(mi_idx2.info) AS second_rating,
       MIN(t1.title) AS first_movie, MIN(t2.title) AS second_movie
FROM company_name AS cn1, company_name AS cn2, info_type AS it1,
     info_type AS it2, kind_type AS kt1, kind_type AS kt2,
     link_type AS lt, movie_companies AS mc1, movie_companies AS mc2,
     movie_info_idx AS mi_idx1, movie_info_idx AS mi_idx2,
     movie_link AS ml, title AS t1, title AS t2
WHERE cn1.country_code != '[us]'
  AND it1.info = 'rating'
  AND it2.info = 'rating'
  AND kt1.kind IN ('tv series', 'episode')
  AND kt2.kind IN ('tv series', 'episode')
  AND lt.link IN ({links})
  AND mi_idx2.info < '{rating}'
  AND t2.production_year BETWEEN {lo} AND {hi}
  AND lt.id = ml.link_type_id
  AND t1.id = ml.movie_id
  AND t2.id = ml.linked_movie_id
  AND it1.id = mi_idx1.info_type_id
  AND t1.id = mi_idx1.movie_id
  AND kt1.id = t1.kind_id
  AND cn1.id = mc1.company_id
  AND t1.id = mc1.movie_id
  AND ml.movie_id = mi_idx1.movie_id
  AND ml.movie_id = mc1.movie_id
  AND mi_idx1.movie_id = mc1.movie_id
  AND it2.id = mi_idx2.info_type_id
  AND t2.id = mi_idx2.movie_id
  AND kt2.id = t2.kind_id
  AND cn2.id = mc2.company_id
  AND t2.id = mc2.movie_id
  AND ml.linked_movie_id = mi_idx2.movie_id
  AND ml.linked_movie_id = mc2.movie_id
  AND mi_idx2.movie_id = mc2.movie_id"""
    for letter, links, rating, lo, hi in (
        ("a", "'sequel', 'follows', 'followed by'", "3.5", 2005, 2008),
        ("b", "'sequel', 'follows', 'followed by'", "3.5", 2005, 2010),
        ("c", "'sequel', 'follows', 'followed by', 'remake of'", "3.5",
         1950, 2010),
    )
})

# The Listing-2 query (Experiments 4/5): a join on non-indexed columns.
LISTING2_FULL_PROJECTION = """SELECT *
FROM movie_keyword AS movie_keyword, movie_link AS movie_link
WHERE movie_link.id <= 10000
  AND movie_keyword.movie_id = movie_link.movie_id"""

LISTING2_LIMITED_PROJECTION = """SELECT movie_keyword.keyword_id,
       movie_link.linked_movie_id
FROM movie_keyword AS movie_keyword, movie_link AS movie_link
WHERE movie_link.id <= 10000
  AND movie_keyword.movie_id = movie_link.movie_id"""


# ----------------------------------------------------------------------
# Access helpers
# ----------------------------------------------------------------------
_QUERY_NAME = re.compile(r"([0-9]+)([a-z]+)")


def query(name):
    """Look up one query by its JOB name, e.g. ``'8c'`` or ``'17b'``."""
    match = _QUERY_NAME.fullmatch(name)
    sql = match and JOB_FAMILIES.get(int(match[1]), {}).get(match[2])
    if not sql:
        raise ReproError(
            f"no JOB query {name!r}; names are family digits then a "
            "variant letter, like '8c'")
    return sql


def queries_in_family(number):
    """{variant letter: SQL} for one family."""
    try:
        return dict(JOB_FAMILIES[number])
    except KeyError:
        raise ReproError(f"no JOB family {number}") from None


def all_queries():
    """All queries as {name: SQL}, e.g. {'1a': ..., ..., '33c': ...}."""
    result = {}
    for number in sorted(JOB_FAMILIES):
        for letter in sorted(JOB_FAMILIES[number]):
            result[f"{number}{letter}"] = JOB_FAMILIES[number][letter]
    return result


def family_numbers():
    """Sorted family numbers (1..33)."""
    return sorted(JOB_FAMILIES)
