SELECT COUNT(*) FROM readings;
SELECT site, COUNT(*) FROM readings GROUP BY site;
SELECT site, SUM(value) FROM readings GROUP BY site;
SELECT site, EXPECTED(value) FROM readings GROUP BY site;
SELECT MIN(value), MAX(value) FROM readings;
-- GROUP BY items are Project items: a group column's alias renames it, an aggregate's alias is its name, and ORDER BY
-- takes either (MEAN / VARIANCE / MASS beside an aggregate or GROUP BY is a QueryError, so none is here)
SELECT site AS s, COUNT(*) FROM r GROUP BY site;
SELECT site AS s, COUNT(*) AS n, EXPECTED(value) AS e FROM r GROUP BY site ORDER BY s;
SELECT site, EXPECTED(value) AS e FROM r GROUP BY site ORDER BY e;
SELECT COUNT(*) FROM r GROUP BY site ORDER BY site;
